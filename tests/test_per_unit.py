from __future__ import annotations

import math

import pytest

from faultlab.scenario import build_scenario


def test_zone_base_formulas() -> None:
    # study-case high-voltage zone: 220 kV quoted as line-line amplitude,
    # so the RMS base is 220/sqrt(2) kV and Z_base = V^2/S = 242 ohm exactly
    assert build_scenario({}).net.z_base_fault_ohm == pytest.approx(242.0, rel=1e-12)
    # Z_base = V_LL^2 / S for other bases, with peak voltages taken as V/sqrt(2) rms
    for v_kv, s_mva, peak in ((33.0, 100.0, False), (132.0, 50.0, True), (400.0, 1000.0, False)):
        s = build_scenario(
            {
                "circuit.v_hv_kv": v_kv,
                "circuit.s_base_mva": s_mva,
                "circuit.voltages_are_peak": peak,
            }
        )
        v_rms = v_kv * 1e3 / (math.sqrt(2.0) if peak else 1.0)
        assert s.net.z_base_fault_ohm == pytest.approx(v_rms**2 / (s_mva * 1e6), rel=1e-12)
