"""Golden digests of what the package prints and exports.

Each digest is the sha256 of the exact bytes: the stdout of a demo or of a
CLI command, a code export in one format, a DNA codebook, the n = 63
divisor lattice or a sweep report.  A change that alters any of them by one
byte fails here, so a refactor of the enumeration, of the word storage or
of the polynomial arithmetic can be checked for unchanged output directly.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import z4udna
from z4udna import conditions, dna
from z4udna.cli import main
from z4udna.cyclic import GeneratorSet, enumerate_code, render_code_export
from z4udna.poly import Poly

DEMOS = Path(__file__).resolve().parents[1] / "demos"

DEMO_DIGESTS = {
    "01_ring_tour.py": "3413e5d72530e2d3e2ca4966916efa5a795061a5084b67d64becaa6c38af55c9",
    "02_length3_codes.py": "826025a2bacb1e9185603eb0d6786da794926b42c05755540d7da60864ac8334",
    "03_length7_lifts.py": "cd5a5a4090675359ea0e77ce2067a74d51cc2ed38601151a19a3f66664262ef7",
    "04_crossval_sweep.py": "aff4a2394ea01bc92034bcb458b737fd4f69201cb919f44861a2924e825dec4e",
    "05_dna_constraints.py": "ea25f9d5ad2e55bfe932b9a3495eecbdffecde320e0a1112ec3f1d0f67907a78",
}

ONES_21 = Poly([1] * 21)

# name: (generators, size, {export format or "codebook": digest})
CODES = {
    "n3": (GeneratorSet(3, Poly.parse("1,1,1"), Poly.parse("1,1,1")), 16, {
        "ring": "cdcfd1179d701a47a6360a111d38435d578dab7ac4b15c4a3510f34e49b8bb89",
        "dna": "359f8dc0d8cecacf0b2047f199648d4f031c28f9a3c4b8446928d18a3c82c69f",
        "gray": "d7deb943f3c16d11fe6f958193da91248f8e9104ba7d04a582f107128d23d145",
        "codebook": "9f776cfd1502181e1f76031d680ad442d1d54714084b23cb8e5b288ef7852c60",
    }),
    "n7": (GeneratorSet(7, Poly.parse("3,0,0,0,0,0,0,1"), Poly.parse("3,1,2,1")), 256, {
        "ring": "aba9c6959fbda28f4163faada6d5b8ca9c803f252bd68cb661e310f091f8efd5",
        "dna": "a51d00bfb51ed4bf0422264587ee1b4a4a16be3ef6ea648e07b8bc6b5df8c7a4",
        "gray": "8e838c6fc1444c995ce263315ef410b856d4f1f5f558c484a8aaa0c24429e80d",
        "codebook": "d8fc6dd7eaff93d6c7b4b51bbfc903a23d0412917ae119bb1277809b5c1940ec",
    }),
    "n21": (GeneratorSet(21, ONES_21, ONES_21), 16, {
        "ring": "8681d908b00a9354ad7d5a810c530cc09f48c0a355cb54d27ec38bdaf43def27",
        "dna": "1e14d25dcf9a69af9fa4d89b2fcb86f19d65b75cda2c0d76208683bc7e496576",
        "gray": "852e00474cd568ce7a935290163ff9ad7d541b8d0e336662d310733a951b620c",
        "codebook": "3ac2e86b43067f7272d19dfd8cc544fedb1cd93f4e390145dbdcd44820846418",
    }),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_stdout_is_unchanged(demo):
    # run the demo against the package these tests import
    package_root = str(Path(z4udna.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(DEMOS / demo)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert _sha256(out) == DEMO_DIGESTS[demo]


@pytest.mark.parametrize("name", sorted(CODES))
def test_exports_and_codebook_are_unchanged(name):
    gens, size, digests = CODES[name]
    code = enumerate_code(gens)
    assert len(code) == size
    rendered = {fmt: render_code_export(code, fmt) for fmt in ("ring", "dna", "gray")}
    rendered["codebook"] = dna.render_codebook(code.dna_words())
    assert {fmt: _sha256(text) for fmt, text in rendered.items()} == digests


def _stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


# name: (text producer, digest); each takes well under a second.
TEXTS = {
    "factor-63": (
        lambda: _stdout_of(["factor", "--n", "63"]),
        "0d2a90934cbffe2eb075657aed49c428c66c9b4fa28aa07f69e5115efc5b9b38"),
    "lattice-63": (
        lambda: "\n".join(map(str, conditions._divisor_lattice(63))),
        "4f394a4ab00d0295a22e80ef76fe124cf84355d82fee8152997d2b19ade1e5a5"),
    "sweep-n3": (
        lambda: conditions.format_sweep_report(conditions.sweep(3, max_f14_degree=0)),
        "347ea4d090d18d60d69322751ed8d0126f110141a19f8430e18ba29949ff9873"),
    "sweep-n7": (
        lambda: conditions.format_sweep_report(
            conditions.sweep(7, seed=42, samples=10, cap=1 << 12)),
        "460a1b678b0b94154720327bafa966d0b9e1c75a50fbea927eea6e0e1218dee5"),
}


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_factoring_lattice_and_sweep_reports_are_unchanged(name):
    produce, digest = TEXTS[name]
    assert _sha256(produce()) == digest
