"""End-to-end and per-layer benchmark for faultlab; see README.md."""
