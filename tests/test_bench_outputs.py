"""Byte guard of the benchmark's outputs.

Builds the op lists of the three perfbench workloads in process, runs each
op through `cli.run_command`, and hashes the standard output of the ops in
order, as perfbench/run.py judges a pass. The digests are the published
`stdout_sha256` of the default seed and the held-out seed; a change that
alters any byte of a listing, a refusal or a report changes them. The
decomposition terms, the calls of `split_noncentrosymmetric` and the points
the census lists are counted the same way, through the names the ops call
them by. A full
`perfbench/run.py --workload all --seconds 0` checks the same bytes in
about 18 s; this takes about half a second per seed. Nothing under
perfbench/ is written.
"""

import hashlib
import io
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from centrostoch import cli, decompose, faces

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DIGESTS = {
    20260819: {
        "stoch-decompose": "faa67b2df5c414d11a2534761f950d9b32abc11b88a64141a92ab6206a0f17f1",
        "centro-decompose": "1cae6fff00a53ee5b9749b830ca7c642feaa3deaf6414eb9d402714a7010878a",
        "census": "f9bd1ab97b11aee3401a19c218381a198b86cb906cc4fd8451287b064487b8a7",
    },
    4099: {
        "stoch-decompose": "cc5de5c4cea8c351f023769981052c23091d8e9b51ea6dc6d6d8c14cfb228a33",
        "centro-decompose": "be34d09d5884364af583a24e589329e0a78281fabbc5129db607af162f0e3ebe",
        "census": "2f4a44bda5612e433e8567c4aa32c30bb29e97296ecbd17e600fedb4da1b0c0f",
    },
}


# (decomposition terms, split_noncentrosymmetric calls) per pass: the
# `decompose.terms` and `decompose.split_noncentrosymmetric.calls` counts of
# the traced run, so a change that splits differently, or around the split's
# name, fails here as well as under --trace 1
WORK = {
    20260819: {"stoch-decompose": (1413, 0), "centro-decompose": (846, 303), "census": (0, 0)},
    4099: {"stoch-decompose": (1403, 0), "centro-decompose": (821, 306), "census": (0, 0)},
}


# (extremes.enumerated, faces.candidates, faces.kept) per pass: the listing
# counts of the traced run, counted through the same names, so a change that
# lists the census's points by another route fails here as well as under
# --trace 1
LISTED = {
    20260819: {"stoch-decompose": (0, 0, 0), "centro-decompose": (0, 0, 0),
               "census": (17989, 4520, 4520)},
    4099: {"stoch-decompose": (0, 0, 0), "centro-decompose": (0, 0, 0),
           "census": (17989, 4520, 4520)},
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("workload", ["stoch-decompose", "centro-decompose", "census"])
@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_outputs_hash_to_the_published_digest(workloads, tmp_path, seed, workload):
    ops, _ = workloads.build(workload, seed, tmp_path)
    digest = hashlib.sha256()
    for op in ops:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.run_command(list(op.argv))
        assert code == op.expect_rc, op.label
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == DIGESTS[seed][workload]


@pytest.mark.parametrize("workload", ["stoch-decompose", "centro-decompose", "census"])
@pytest.mark.parametrize("seed", sorted(WORK))
def test_engine_work_counts(workloads, monkeypatch, tmp_path, seed, workload):
    ops, _ = workloads.build(workload, seed, tmp_path)
    counts = {"terms": 0, "splits": 0}

    def terms_of(fn):
        def counted(a):
            comb = fn(a)
            counts["terms"] += len(comb)
            return comb
        return counted

    def split(r, real=decompose.split_noncentrosymmetric):
        counts["splits"] += 1
        return real(r)

    for name in ("decompose_stochastic", "decompose_centrosymmetric"):
        monkeypatch.setattr(cli, name, terms_of(getattr(cli, name)))
    monkeypatch.setattr(decompose, "split_noncentrosymmetric", split)
    for op in ops:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.run_command(list(op.argv)) == op.expect_rc, op.label
    assert (counts["terms"], counts["splits"]) == WORK[seed][workload]


@pytest.mark.parametrize("workload", ["stoch-decompose", "centro-decompose", "census"])
@pytest.mark.parametrize("seed", sorted(LISTED))
def test_listing_counts(workloads, monkeypatch, tmp_path, seed, workload):
    ops, _ = workloads.build(workload, seed, tmp_path)
    counts = Counter()

    def tally(items, names):
        for item in items:
            counts.update(names)
            yield item

    def counted(fn, names):
        # called at once, as the op calls it; its items are counted as read
        return lambda *args, **kwargs: tally(fn(*args, **kwargs), names)

    for kind in ("stochastic", "centro"):
        name = f"enumerate_extreme_{kind}"
        monkeypatch.setattr(cli, name, counted(getattr(cli, name), ["enumerated"]))
        monkeypatch.setattr(faces, name, counted(getattr(faces, name), ["enumerated", "candidates"]))
    monkeypatch.setattr(cli, "enumerate_face_vertices",
                        counted(cli.enumerate_face_vertices, ["kept"]))
    for op in ops:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.run_command(list(op.argv)) == op.expect_rc, op.label
    assert (counts["enumerated"], counts["candidates"], counts["kept"]) == LISTED[seed][workload]
