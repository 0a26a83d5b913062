"""The exact demos print the same bytes as before: each one runs in-process
and its stdout is pinned by SHA-256.  Demo 04 prints float trajectories and
is left out."""

import contextlib
import hashlib
import io
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, digest", [
    ("01_exterior_algebra", "37cd93b0d8e137053b0dcd09a003ad880d44adc7624cc48479953edcbd196003"),
    ("02_young_symmetrizers", "6600272fdccdd01fd7a0938b695006ec62d0692b59f6625e069122670c3548a5"),
    ("03_impulsion_polynomials", "42384040c7bc9272be9a16f12be53a616da18b22fdb0553b2968d3d9869b6281"),
    ("05_bivector_classification", "158e8d822fe0ca3f370f3de5bd9f83781387bde706a103cb46b73e6616d72665"),
    ("06_screen_finder", "e37c0ac56573b6d583eb90f3f15c8a19dd7cda39a4951a1ea4a7455b4b136df1"),
    ("07_quadratic_integrals", "ed2a85233e677f48e73ad4c9caf2f2b31642ef12bbd54f9ac0a2adc9bff244ac"),
])
def test_demo_stdout_is_byte_identical_to_the_pinned_one(name, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
