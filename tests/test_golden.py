"""Golden reports: rendered output pinned by digest on fixed instances.

Each digest is the sha256 of ``render_report(build_report(tm), fmt)``.  A
change that speeds up or restructures the report must leave these bytes
untouched; a failure here means some printed field moved.
"""

from __future__ import annotations

import hashlib

import pytest

from rootlink import build_matrix, build_report, random_instance, render_report

from conftest import SIX_LEAF_CHILDREN, SIX_LEAF_VALUES, caterpillar, instance


def golden_instances() -> dict:
    """Name -> TreeMatrix for every pinned report."""
    out = {"six-leaf": instance(SIX_LEAF_CHILDREN, "I", SIX_LEAF_VALUES)}
    for n in (32, 44, 64):
        out[f"strict-{n}"] = build_matrix(*random_instance(n, n, "strict", min_leaves=n))
    for n, seed in ((21, 1), (41, 2)):
        out[f"caterpillar-{n}"] = caterpillar(n, seed)
    return out


GOLDEN = {
    ("six-leaf", "json"): "37bfe56614c67eef9759cfa7acbdf81a287e1470c4e964f45efa561361a6150a",
    ("six-leaf", "text"): "b473bfb0756c0008ce2192d1a4dec2ca2574a6a351c9935aa169d3e6f30e4756",
    ("strict-32", "json"): "8c1a06dde90a853856e9e4a90c231b8c408bcb7279f40f3774ad6595f87916f8",
    ("strict-32", "text"): "4f31863d27974efc420ce1409f14af2c4da3d54787a68049f25c2d012cb0198b",
    ("strict-44", "json"): "51ea2ec54eaf3ecb22b420b2e44d3ce9830f39d0b848216ce5ec946412555899",
    ("strict-44", "text"): "a5ecaea4eb060926b5ea6416e084cf4dfd79a507325eed3c02f4cc6e85c8e6c4",
    ("strict-64", "json"): "ee3f4668182a63e93be7a90509e93e06e8cd31b4b34bf4b50ea284a698d3807b",
    ("strict-64", "text"): "6e036cd7dffc01212f58d3f53809b1adeaec24a31fa092cbd3e5565abac01a19",
    ("caterpillar-21", "json"): "421e656190f0e2cbcb31927a4b1759f4e45294fbb8ad94e7635416c4b42cdefb",
    ("caterpillar-21", "text"): "1908f8f2138f4602a96388c529302383f326ffa94f13f6b08c8602f4e61e876f",
    ("caterpillar-41", "json"): "dfa994b9b07f83f4b5ffeb38cac4dda964dde41c1c95fa0b881192a315246261",
    ("caterpillar-41", "text"): "07f31eb8b70d937bd94e42e408bbcd596d36a8439d52aa3811e484e432e72fae",
}


@pytest.fixture(scope="module")
def reports() -> dict:
    return {name: build_report(tm) for name, tm in golden_instances().items()}


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN))
def test_report_digest(reports, name, fmt):
    rendered = render_report(reports[name], fmt).encode()
    assert hashlib.sha256(rendered).hexdigest() == GOLDEN[name, fmt]
