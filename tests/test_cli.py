"""End-to-end checks of the command line front end: artifacts, schemas,
exit codes, and byte-level reproducibility."""

import dataclasses
import filecmp
import json
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ifslab import bounds, cli, criteria, gallery, holomap, ifs, moebius, straighten
from ifslab.geometry import _omega_raw

BASEL = '{"type": "rule", "name": "scale_product", "params": {"power": 2}}'
HARMONIC = '{"type": "rule", "name": "scale_product", "params": {"power": 1}}'
SQUARING = '{"type": "cycle", "generators": [{"kind": "monomial", "power": 2}]}'
# z -> (z + a)/(1 + a z) with a = 0.999999999: L_1(0) lies 1e-9 inside the
# circle and L_2(0) in the engines' hold band
NEAR_CIRCLE = ('{"type": "cycle", "generators": [{"kind": "mobius", "matrix": '
               '[[1, 0], [0.999999999, 0], [0.999999999, 0], [1, 0]], "domain": "disc"}]}')


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def _stream_file(tmp_path, name, generator):
    """A file holding the cycled stream of one generator spec."""
    p = tmp_path / name
    p.write_text(json.dumps({"type": "cycle", "generators": [generator]}), encoding="utf-8")
    return str(p)


def test_simulate_left_orbit_csv(tmp_path):
    rc = cli.main(
        ["--out", str(tmp_path), "simulate", "--stream", BASEL, "-N", "50",
         "--seed-point", "0", "--seed-point", "0.3+0.2j"]
    )
    assert rc == 0
    lines = _lines(tmp_path / "orbit.csv")
    assert lines[0] == cli.ORBIT_HEADER
    assert len(lines) == 1 + 2 * 51  # two seeds, horizons 0..50
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[5]) == 0.0


def test_simulate_right(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "simulate", "--stream", SQUARING,
                   "--side", "right", "-N", "8", "--seed-point", "0.5"])
    assert rc == 0
    lines = _lines(tmp_path / "orbit.csv")
    assert lines[0] == cli.ORBIT_HEADER
    assert len(lines) == 1 + 9


def test_main_twice_in_one_process_writes_fresh_artifacts(tmp_path):
    # main reuses one parser; the second call, without --seed-point,
    # must not see the first call's two seeds
    args = ["simulate", "--stream", BASEL, "-N", "5"]
    runs = {"two": ["--seed-point", "0", "--seed-point", "0.3+0.2j"], "none": []}
    for name, seeds in runs.items():
        assert cli.main(["--out", str(tmp_path / name), *args, *seeds]) == 0
    assert cli._build_parser() is cli._build_parser()
    for name, seeds in runs.items():
        cli._build_parser.cache_clear()  # a fresh parser, as in a new process
        assert cli.main(["--out", str(tmp_path / "fresh" / name), *args, *seeds]) == 0
        assert filecmp.cmp(tmp_path / name / "orbit.csv", tmp_path / "fresh" / name / "orbit.csv",
                           shallow=False)
    assert len(_lines(tmp_path / "two" / "orbit.csv")) == 1 + 2 * 6
    assert len(_lines(tmp_path / "none" / "orbit.csv")) == 1 + 6  # the default seed only


def test_simulate_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert cli.main(["--out", str(d), "simulate", "--stream", BASEL, "-N", "40"]) == 0
    assert filecmp.cmp(a / "orbit.csv", b / "orbit.csv", shallow=False)


def test_straighten_left(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "straighten", "--stream", BASEL, "-N", "200"])
    assert rc == 0
    doc = _read_json(tmp_path / "straighten.json")
    assert doc["command"] == "straighten" and doc["side"] == "left"
    assert doc["steps"] == 200  # the telescoping product moves too slowly to converge here
    assert not doc["degenerate"] and not doc["stopped_at_boundary"]
    lines = _lines(tmp_path / "straighten.csv")
    assert lines[0] == cli.STRAIGHTEN_HEADER
    assert len(lines) == 1 + doc["steps"]
    # telescoping product: the limit distortion at 0 is (N+2)/(2(N+1))
    final = float(lines[-1].split(",")[3])
    assert final == pytest.approx(202.0 / 402.0, abs=1e-6)


def test_straighten_right_requires_orbit(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "straighten", "--stream", SQUARING,
                   "--side", "right", "-N", "10"])
    assert rc == 2


def test_straighten_right_with_orbit_file(tmp_path):
    orbit = [[0.5 ** (2.0**-n), 0.0] for n in range(16)]
    p = tmp_path / "orbit.json"
    p.write_text(json.dumps(orbit), encoding="utf-8")
    rc = cli.main(["--out", str(tmp_path), "straighten", "--stream", SQUARING,
                   "--side", "right", "-N", "15", "--orbit", str(p)])
    assert rc == 0
    doc = _read_json(tmp_path / "straighten.json")
    assert doc["side"] == "right"
    assert len(doc["gn_derivs"]) > 0
    assert all(len(g) == 2 for g in doc["gn_derivs"])


def test_straighten_right_stops_at_the_horizon(tmp_path):
    orbit = [[0.5 ** (2.0**-n), 0.0] for n in range(31)]
    p = tmp_path / "orbit.json"
    p.write_text(json.dumps(orbit), encoding="utf-8")
    rc = cli.main(["--out", str(tmp_path), "straighten", "--stream", SQUARING,
                   "--side", "right", "-N", "5", "--orbit", str(p)])
    assert rc == 0
    doc = _read_json(tmp_path / "straighten.json")
    assert doc["horizon"] == 5 and doc["steps"] <= 5
    assert len(_lines(tmp_path / "straighten.csv")) == 1 + doc["steps"]
    assert len(doc["gammas"]) == 1 + doc["steps"]


def test_straighten_right_short_orbit(tmp_path):
    p = tmp_path / "orbit.json"
    p.write_text(json.dumps([[0.5, 0.0]] * 3), encoding="utf-8")
    rc = cli.main(["--out", str(tmp_path), "straighten", "--stream", SQUARING,
                   "--side", "right", "-N", "10", "--orbit", str(p)])
    assert rc == 2


def test_classify_left_matches_library(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "classify", "--stream", BASEL, "-N", "5000"])
    assert rc == 0
    doc = _read_json(tmp_path / "classify.json")
    stream = ifs.stream_from_json(json.loads(BASEL))
    rep = criteria.classify_left_limits(stream, 5000, base_points=(0j, 0.3 + 0.2j))
    assert doc["verdict"] == rep.kind == "nonconstant_limits"
    lines = _lines(tmp_path / "series.csv")
    assert lines[0] == cli.SERIES_HEADER
    assert len(lines) == 1 + 5000


def test_classify_left_series_csv_in_blocks_matches_the_sweep(tmp_path):
    # series.csv goes out CSV_CHUNK steps to a % format; each line is still
    # the one-row format of the step the library's sweep reports for it
    n_max = 1300
    assert n_max > 2 * cli.CSV_CHUNK and n_max % cli.CSV_CHUNK
    # the first base point off 0, so that the orbit columns are not 0
    assert cli.main(["--out", str(tmp_path), "classify", "--stream", BASEL, "-N", str(n_max),
                     "--base-point", "0.3+0.2j", "--base-point", "0"]) == 0
    stream = ifs.stream_from_json(json.loads(BASEL))
    steps = []
    criteria.classify_left_limits(stream, n_max, base_points=(0.3 + 0.2j, 0j), row=steps.append)
    assert len(steps) == n_max and steps[-1][4].imag != 0.0
    assert _lines(tmp_path / "series.csv") == [cli.SERIES_HEADER] + [
        _per_field(str(n), term, total, product, at.real, at.imag) for n, term, total, product, at in steps
    ]


def test_classify_basel_series_csv_in_closed_form(tmp_path):
    # from base point 0 the Basel terms 1 - a_n = 1/(n+1)^2 are exact
    # floats, and so is every partial sum (a multiple of 2^-53 below 1), so
    # the streamed running sum must equal the exact sum of the float terms
    # bit for bit; the product telescopes to (N+2)/(2(N+1))
    n_max = 10_000
    assert cli.main(["--out", str(tmp_path), "classify", "--stream", BASEL, "-N", str(n_max)]) == 0
    rows = [line.split(",") for line in _lines(tmp_path / "series.csv")[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, n_max + 1))
    exact = Fraction(0)
    for n, (_, term, total, _, _, _) in enumerate(rows, start=1):
        assert float(term) == 1.0 - (1.0 - 1.0 / (n + 1) ** 2)
        exact += Fraction(float(term))
        assert Fraction(float(total)) == exact, n
    telescoped = (n_max + 2) / (2 * (n_max + 1))
    assert float(rows[-1][3]) == pytest.approx(telescoped, rel=1e-13, abs=0)


@pytest.mark.parametrize("horizon, listing", [
    (2, ["diagnostics.json"]),  # the series' band abort at step 2
    (3, ["classify.json"]),  # the orbit escapes
])
def test_classify_left_leaves_no_series_csv_on_abort_or_escape(tmp_path, horizon, listing):
    # series.csv streams as the sweep runs; neither an abort nor an escape
    # keeps it, as a file or as a temporary one
    rc = cli.main(["--out", str(tmp_path), "classify", "-N", str(horizon), "--stream", NEAR_CIRCLE])
    assert rc == (3 if horizon == 2 else 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


def test_classify_right_matches_library(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "classify", "--stream", HARMONIC,
                   "--side", "right", "-N", "3000", "--base-point", "0.7"])
    assert rc == 0
    doc = _read_json(tmp_path / "classify.json")
    stream = ifs.stream_from_json(json.loads(HARMONIC))
    rep = criteria.classify_right_limits(stream, 3000, z0=0.7)
    assert doc["verdict"] == rep.kind
    assert doc["limit_estimate"] == [rep.limit_estimate.real, rep.limit_estimate.imag]


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


SCALE_07 = '{"type": "cycle", "generators": [{"kind": "scale", "factor": [0.7, 0]}]}'
# z -> (z + 0.6)/(1 + 0.6 z), a hyperbolic automorphism
HYPERBOLIC = ('{"type": "cycle", "generators": [{"kind": "mobius", '
              '"matrix": [[1, 0], [0.6, 0], [0.6, 0], [1, 0]], "domain": "disc"}]}')


def test_classify_right_contracting_cycle_writes_strict_json(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "classify", "--stream", SCALE_07,
                   "--side", "right", "-N", "4000"])
    assert rc == 0
    doc = _strict_json(tmp_path / "classify.json")
    assert doc["verdict"] == "constant_limit"
    assert doc["limit_estimate"] == [0.0, 0.0]


@pytest.mark.parametrize("command", ["simulate", "classify"])
def test_right_hyperbolic_cycle_saturates_and_exits_0(tmp_path, command):
    rc = cli.main(["--out", str(tmp_path), command, "--stream", HYPERBOLIC,
                   "--side", "right", "-N", "2000"])
    assert rc == 0
    assert not (tmp_path / "diagnostics.json").exists()
    if command == "classify":
        doc = _strict_json(tmp_path / "classify.json")
        # the base point saturates long before the first checkpoint
        assert doc["verdict"] == "inconclusive"
        assert doc["distortion_checkpoints"] == []
    else:
        lines = _lines(tmp_path / "orbit.csv")
        assert len(lines) == 1 + 2001
        # the seed 0 heads to the attracting fixed point 1
        x, y = (float(t) for t in lines[-1].split(",")[3:5])
        assert abs(complex(x, y) - 1.0) < 1e-12


class _NaNScale(holomap.Scale):
    def eval(self, z):
        return complex("nan")

    def matrix(self):
        return None


def test_right_non_finite_value_exits_3_with_diagnostics(tmp_path, monkeypatch):
    stream = ifs.GeneratorStream.from_cycle([holomap.Scale(0.5), _NaNScale(0.5)])
    monkeypatch.setattr(cli.ifs, "stream_from_json", lambda obj: stream)
    rc = cli.main(["--out", str(tmp_path), "simulate", "--stream", SCALE_07,
                   "--side", "right", "-N", "10"])
    assert rc == 3
    diag = _strict_json(tmp_path / "diagnostics.json")
    assert diag["error"] == "NonFiniteError"
    # the engine's own partial is kept, the rows streamed so far are named
    assert diag["partial"] == {"n": 2, "seed": 0, "file": "orbit.partial.csv", "rows": 2}
    assert not (tmp_path / "orbit.csv").exists()
    lines = _lines(tmp_path / "orbit.partial.csv")
    assert lines[0] == cli.ORBIT_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diagnostics.json", "orbit.partial.csv"]
    # a later complete run replaces the stale partial file
    monkeypatch.undo()
    rc = cli.main(["--out", str(tmp_path), "simulate", "--stream", SCALE_07, "--side", "right", "-N", "10"])
    assert rc == 0
    assert (tmp_path / "orbit.csv").exists() and not (tmp_path / "orbit.partial.csv").exists()


class _Expanding(holomap.Scale):
    """A rotation that also expands by one part in 10^6: no self-map of
    the disc does that, and the left pair ledger must notice."""

    def eval(self, z):
        return self.factor * z * (1.0 + 1e-6)


class _Tripping(holomap.Scale):
    """A rotation whose evaluation raises the ledger's error: a lone seed
    has no pair for the left ledger to check."""

    def eval(self, z):
        raise holomap.ConsistencyError("planted fault")


# the faulty step: one inside a block, the first step of the first block,
# the first and last steps of the third block (CSV_CHUNK // seeds steps
# each) and one past it
_BLOCK_EDGES = {
    "mid-block": lambda steps: 2501,
    "first-block-first": lambda steps: 1,
    "first": lambda steps: 2 * steps + 1,
    "last": lambda steps: 3 * steps,
    "past-last": lambda steps: 3 * steps + 1,
}


@pytest.mark.parametrize("edge", _BLOCK_EDGES)
@pytest.mark.parametrize("seeds", [1, 2])
def test_left_ledger_abort_keeps_the_rows_streamed_so_far(tmp_path, monkeypatch, seeds, edge):
    fault = _BLOCK_EDGES[edge](cli.CSV_CHUNK // seeds)
    rows = seeds * fault  # steps 0 .. fault - 1
    healthy = [holomap.Scale(1j)] * (fault - 1)
    argv = ["simulate", "--stream", SCALE_07, "-N", str(fault + 100),
            "--seed-point", "0"] + ["--seed-point", "0.3+0.2j"] * (seeds - 1)
    faulty = ifs.GeneratorStream.from_cycle(healthy + [(_Expanding if seeds == 2 else _Tripping)(1j)])
    monkeypatch.setattr(cli.ifs, "stream_from_json", lambda obj: faulty)
    assert cli.main(["--out", str(tmp_path / "faulty")] + argv) == 3
    diag = _strict_json(tmp_path / "faulty" / "diagnostics.json")
    assert diag["error"] == "ConsistencyError"
    assert diag["partial"] == {"file": "orbit.partial.csv", "rows": rows}
    assert not (tmp_path / "faulty" / "orbit.csv").exists()
    clean = ifs.GeneratorStream.from_cycle(healthy + [holomap.Scale(1j)])
    monkeypatch.setattr(cli.ifs, "stream_from_json", lambda obj: clean)
    assert cli.main(["--out", str(tmp_path / "clean")] + argv) == 0
    kept = _lines(tmp_path / "faulty" / "orbit.partial.csv")
    assert len(kept) == 1 + rows
    assert kept == _lines(tmp_path / "clean" / "orbit.csv")[: len(kept)]


def test_other_errors_leave_no_artifact(tmp_path):
    listed = []

    def rows():
        yield "1,2"
        listed.extend(p.name for p in tmp_path.iterdir())
        raise KeyError("late")

    with pytest.raises(KeyError):
        cli._write_csv(tmp_path / "x.csv", "a,b", rows())
    # while rows stream, the final name does not exist yet
    assert len(listed) == 1 and listed != ["x.csv"]
    assert not any(tmp_path.iterdir())


def test_verify_artifacts_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        rc = cli.main(["--out", str(d), "verify", "--kind", "approx_auto",
                       "--fuzz", "300", "--seed", "7"])
        assert rc == 0
    lines = _lines(a / "margins.csv")
    assert lines[0] == cli.MARGINS_HEADER
    assert len(lines) == 1 + 300
    doc = _read_json(a / "verify.json")
    assert doc["kind"] == "approx_auto" and doc["min_margin"] >= -1e-9
    assert filecmp.cmp(a / "margins.csv", b / "margins.csv", shallow=False)
    assert filecmp.cmp(a / "verify.json", b / "verify.json", shallow=False)


@pytest.mark.parametrize("argv", [
    ["simulate", "--stream", BASEL, "-N", "-5"],
    ["straighten", "--stream", BASEL, "-N", "-3"],
    ["classify", "--stream", BASEL, "-N", "-3"],
    ["fixed-points", "--stream", BASEL, "-N", "0"],
    ["verify", "--kind", "transfer", "--fuzz", "0"],
    ["verify", "--kind", "transfer", "--fuzz", "-1"],
    ["gallery", "--example", "dense", "--count", "-3"],
    ["gallery", "--example", "escape_return", "--nmax", "-2"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}{argv[-1]}")
def test_sizes_below_one_exit_2_before_any_artifact(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path)] + argv)
    assert exc.value.code == 2
    assert "N must be at least 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["verify", "--kind", "transfer", "--fuzz", "5", "--coefficient", "nan"],
    ["verify", "--kind", "transfer", "--fuzz", "5", "--coefficient=-inf"],
    ["fixed-points", "--stream", BASEL, "-N", "5", "--guard", "nan"],
    ["straighten", "--stream", BASEL, "-N", "5", "--tol", "nan"],
    ["straighten", "--stream", BASEL, "-N", "5", "--tol", "inf"],
], ids=["coefficient-nan", "coefficient-neg-inf", "guard-nan", "tol-nan", "tol-inf"])
def test_non_finite_float_flags_exit_2_before_any_artifact(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path)] + argv)
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# point flags are parsed inside the subcommand, so they exit 2 through
# main's return value rather than through argparse's SystemExit
# point flags are disc points: one outside the disc exits 2 as well, and
# so does a left probe whose |H_n(probe)| <= |probe| reads as a collapse
_OUTSIDE = "not an interior disc point"
_COLLAPSE = "reads as a collapse"


@pytest.mark.parametrize("argv, message", [
    (["classify", "--stream", BASEL, "-N", "5", "--base-point", "nan"], "must be finite"),
    (["classify", "--stream", BASEL, "--side", "right", "-N", "5", "--base-point", "inf"], "must be finite"),
    (["simulate", "--stream", BASEL, "-N", "5", "--seed-point", "nan+nanj"], "must be finite"),
    (["straighten", "--stream", BASEL, "-N", "5", "--probe", "nan"], "must be finite"),
    (["straighten", "--stream", BASEL, "-N", "5", "--probe=-infj"], "must be finite"),
    (["simulate", "--stream", BASEL, "-N", "5", "--seed-point", "1.5"], _OUTSIDE),
    (["simulate", "--stream", BASEL, "--side", "right", "-N", "5", "--seed-point", "1.5"], _OUTSIDE),
    (["classify", "--stream", BASEL, "-N", "5", "--base-point", "0", "--base-point", "1.5"], _OUTSIDE),
    (["classify", "--stream", BASEL, "--side", "right", "-N", "5", "--base-point", "1.5"], _OUTSIDE),
    (["straighten", "--stream", BASEL, "-N", "5", "--probe", "1.5"], _OUTSIDE),
    (["straighten", "--stream", BASEL, "-N", "5", "--probe", "0"], _COLLAPSE),
    (["straighten", "--stream", BASEL, "-N", "5", "--probe", "1e-12"], _COLLAPSE),
    (["straighten", "--stream", BASEL, "-N", "5", "--probe", "1e-9j"], _COLLAPSE),
], ids=["base-point-nan", "right-base-point-inf", "seed-point-nan", "probe-nan", "probe-neg-inf",
        "seed-point-outside", "right-seed-point-outside", "base-point-outside",
        "right-base-point-outside", "probe-outside", "left-probe-0", "left-probe-1e-12",
        "left-probe-1e-9j"])
def test_non_finite_point_flags_exit_2_before_any_artifact(tmp_path, capsys, argv, message):
    assert cli.main(["--out", str(tmp_path)] + argv) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_right_probe_at_0_runs(tmp_path):
    # the right collapse test reads the grid, so the probe 0 is a probe like any other
    orbit = tmp_path / "orbit.json"
    orbit.write_text(json.dumps([[0.5 ** (2.0 ** -n), 0.0] for n in range(31)]), encoding="utf-8")
    rc = cli.main(["--out", str(tmp_path / "out"), "straighten", "--side", "right", "-N", "5",
                   "--stream", SQUARING, "--orbit", str(orbit), "--probe", "0"])
    assert rc == 0
    assert _strict_json(tmp_path / "out" / "straighten.json")["probe"] == [0.0, 0.0]


def test_write_json_rejects_non_finite_numbers(tmp_path):
    # the last payload's NaN comes after a first batch has been written
    late = {"a": list(range(cli.JSON_CHUNK)), "b": math.nan}
    for payload in ({"x": math.nan}, {"pair": [0.5, -math.inf]}, late):
        with pytest.raises(ifs.NonFiniteError, match="non-finite"):
            cli._write_json(tmp_path / "x.json", payload)
        assert not any(tmp_path.iterdir())


def _dumps(doc) -> bytes:
    """The writer's oracle: the stdlib's sorted, indent-2, strict form."""
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=cli._encode)
    return (text + "\n").encode("ascii")


def test_write_json_matches_one_shot_dumps(tmp_path, monkeypatch):
    stream = ifs.stream_from_json(json.loads(BASEL))
    res = straighten.left_straighten(stream, 3000, probe=0.5)
    doc = cli._report(res, command="straighten", side="left", horizon=3000)
    writes = []
    monkeypatch.setattr(cli, "_write_text", lambda fh, text: (writes.append(len(text)), fh.write(text)))
    cli._write_json(tmp_path / "s.json", doc)
    assert len(writes) > 1  # the report spans several chunks
    assert (tmp_path / "s.json").read_bytes() == _dumps(doc)


@dataclasses.dataclass
class _Record:
    name: str
    value: object


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | _FLOATS | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "\u00e9\u2207\U0001d4b5", "</", ""])
    | st.builds(complex, _FLOATS, _FLOATS)
    | st.builds(moebius.make_disc_auto, st.complex_numbers(max_magnitude=0.9), st.floats(-10, 10))
)
_DOCS = st.recursive(
    _SCALARS,
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), kids, max_size=4)
        | st.builds(_Record, st.text(max_size=4), kids)
    ),
    max_leaves=30,
)


@given(_DOCS, st.sampled_from([1, 2, 5, cli.JSON_CHUNK]))
@settings(max_examples=300, deadline=None)
def test_write_json_is_the_stdlib_form(tmp_path_factory, doc, chunk):
    # a small chunk makes a small document span many chunks
    path = tmp_path_factory.mktemp("w") / "doc.json"
    with mock.patch.object(cli, "JSON_CHUNK", chunk):
        cli._write_json(path, doc)
    assert path.read_bytes() == _dumps(doc)


@given(_DOCS, st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_write_json_non_finite_anywhere_leaves_no_file(tmp_path_factory, doc, bad, where):
    # the bad float as a value, in a complex, or in a dict after chunks
    # of doc have been written
    bad_doc = [{"x": [doc, bad]}, [doc, complex(0.5, bad)], {"early": [doc] * 3, "late": bad}][where]
    out = tmp_path_factory.mktemp("nf")
    with mock.patch.object(cli, "JSON_CHUNK", 2), pytest.raises(
        holomap.NonFiniteError, match="would hold a non-finite number: Out of range float"
    ):
        cli._write_json(out / "doc.json", bad_doc)
    assert not any(out.iterdir())


@pytest.mark.parametrize("fuzz, coefficient", [("1", "1.7e308"), ("50", "1e308")])
def test_verify_overflowing_coefficient_is_a_named_abort(tmp_path, fuzz, coefficient):
    # every approx_auto margin overflows: its rhs is coefficient * e^(4 omega) * (...)
    rc = cli.main(["--out", str(tmp_path), "verify", "--kind", "approx_auto",
                   "--fuzz", fuzz, "--coefficient", coefficient])
    assert rc == 3
    assert _strict_json(tmp_path / "diagnostics.json")["error"] == "NonFiniteError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diagnostics.json"]


def test_verify_unknown_kind(tmp_path):
    # argparse rejects at the choices gate
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "verify", "--kind", "sharpest"])
    assert exc.value.code == 2


def test_gallery_unknown_example(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "gallery", "--example", "spiral"])
    assert exc.value.code == 2


def _svg_reference(points, marks) -> str:
    """The drawing rendered in one piece, independently of the streamed writer."""
    xs = [p.real for p in points] + [m.real for m in marks]
    ys = [p.imag for p in points] + [m.imag for m in marks]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(0.0, min(ys)), max(ys)
    pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-6)
    xmin, xmax, ymin, ymax = xmin - pad, xmax + pad, ymin - pad, ymax + pad
    width = 800.0
    scale = width / (xmax - xmin)
    height = max(60.0, min(1600.0, (ymax - ymin) * scale))

    def sx(x):
        return (x - xmin) * scale

    def sy(y):
        return height - (y - ymin) * scale

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %.2f %.2f">' % (width, height),
        '<line x1="0" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#999" stroke-width="1"/>'
        % (sy(0.0), width, sy(0.0)),
        '<polyline fill="none" stroke="#246" stroke-width="1" points="%s"/>'
        % " ".join(
            "%.2f,%.2f" % ((p.real - xmin) * scale, height - (p.imag - ymin) * scale) for p in points
        ),
    ]
    for m in marks:
        parts.append(
            '<circle cx="%.2f" cy="%.2f" r="3" fill="#c33"/>' % (sx(m.real), sy(m.imag))
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_gallery_escape_return(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "gallery", "--example", "escape_return",
                   "--nmax", "3", "--svg"])
    assert rc == 0
    doc = _read_json(tmp_path / "gallery.json")
    assert doc["achieved_n"] == 3 and not doc["exhausted"]
    assert doc["map_count"] == doc["milestones"][-1] + 1
    assert all(c["target_gap"] < 2.0 ** -c["n"] for c in doc["certs"])
    assert (tmp_path / "orbit.csv").exists()
    svg = (tmp_path / "gallery.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # the drawing follows an independently advanced cursor, every step of it
    build = gallery.build_escape_return(3)
    cur = ifs.LeftOrbitCursor(build.stream, (0j,), track_pairs=False)
    orbit = [cur.values[0]]
    for _ in range(len(build.maps)):
        orbit.append(cur.advance().values[0])
    pts = [1j * (1.0 + v) / (1.0 - v) for v in orbit]
    assert svg == _svg_reference(pts, list(build.milestone_values))
    polyline = next(line for line in svg.splitlines() if line.startswith("<polyline"))
    assert polyline.count(",") == doc["map_count"] + 1


def test_gallery_dense(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "gallery", "--example", "dense", "--count", "4"])
    assert rc == 0
    doc = _read_json(tmp_path / "gallery.json")
    assert not doc["exhausted"]
    assert len(doc["milestones"]) == 5
    assert all(c["deviation"] <= c["delta"] for c in doc["certs"])


def test_gallery_dense_targets_file(tmp_path):
    targets = [moebius.to_json(t) for t in
               (moebius.make_disc_auto(0.2, 0.0), moebius.make_disc_auto(0.1j, 1.5))]
    p = tmp_path / "targets.json"
    p.write_text(json.dumps(targets), encoding="utf-8")
    rc = cli.main(["--out", str(tmp_path), "gallery", "--example", "dense",
                   "--targets", str(p)])
    assert rc == 0
    doc = _read_json(tmp_path / "gallery.json")
    assert len(doc["targets"]) == 2


def test_gallery_dense_empty_targets_file_exits_2(tmp_path):
    p = tmp_path / "targets.json"
    p.write_text("[]", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["--out", str(out), "gallery", "--example", "dense", "--targets", str(p)])
    assert rc == 2
    assert not (out / "gallery.json").exists()


@pytest.mark.parametrize("text, message", [
    ("[1]", "a mobius payload must be a JSON object, got 1"),
    ('["x"]', "a mobius payload must be a JSON object, got 'x'"),
    ('{"targets": []}', "the top level must be a JSON array, got dict"),
], ids=["number-entry", "string-entry", "object-top-level"])
def test_gallery_dense_malformed_targets_file_exits_2(tmp_path, capsys, text, message):
    p = tmp_path / "targets.json"
    p.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["--out", str(out), "gallery", "--example", "dense", "--targets", str(p)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (out / "gallery.json").exists()


def test_fixed_points(tmp_path):
    # Mobius(make_disc_auto(0.1, 0.0)) o Scale(0.5)
    auto = {"kind": "mobius", "matrix": [[1.0, 0.0], [0.1, 0.0], [0.1, -0.0], [1.0, 0.0]], "domain": "disc"}
    f = {"kind": "compose", "parts": [auto, {"kind": "scale", "factor": [0.5, 0.0]}]}
    spec = _stream_file(tmp_path, "stream.json", f)
    rc = cli.main(["--out", str(tmp_path), "fixed-points", "--stream", spec, "-N", "300"])
    assert rc == 0
    doc = _read_json(tmp_path / "fixed_points.json")
    assert doc["residual_max"] < 1e-9
    assert doc["orbit_gap"] < 1e-6
    assert len(doc["limit_estimate"]) == 2


def test_refusal_writes_diagnostics(tmp_path):
    # Mobius(make_disc_auto(0.0, 0.7)), a rotation
    rot = {"kind": "mobius", "matrix": [[0.7648421872844885, 0.644217687237691], [0.0, 0.0], [0.0, -0.0], [1.0, 0.0]],
           "domain": "disc"}
    spec = _stream_file(tmp_path, "stream.json", rot)
    rc = cli.main(["--out", str(tmp_path), "fixed-points", "--stream", spec, "-N", "100"])
    assert rc == 3
    diag = _read_json(tmp_path / "diagnostics.json")
    assert diag["command"] == "fixed-points"
    assert diag["error"] == "TrackingRefusal"
    assert diag["message"]


SCALE_05 = '{"type": "cycle", "generators": [{"kind": "scale", "factor": [0.5, 0]}]}'
_STRAIGHTEN = ["straighten", "--stream", BASEL, "-N", "30"]
_CLASSIFY_LEFT = ["classify", "--stream", BASEL, "-N", "200"]
_CLASSIFY_RIGHT = ["classify", "--stream", HARMONIC, "--side", "right", "-N", "200"]
_VERIFY = ["verify", "--kind", "approx_auto", "--fuzz", "5"]
_ESCAPE = ["gallery", "--example", "escape_return", "--nmax", "1"]
_DENSE = ["gallery", "--example", "dense", "--count", "1"]
_FIXED = ["fixed-points", "--stream", SCALE_05, "-N", "20"]


# the JSON artifacts are report dataclass fields walked generically, so a
# field added to a report would reach its artifact unseen without these
@pytest.mark.parametrize("argv, artifact, path, keys", [
    (_STRAIGHTEN, "straighten.json", (), [
        "command", "converged", "degenerate", "gammas", "gn_derivs", "grid", "h_at_probe",
        "h_grid", "horizon", "phases", "probe", "side", "steps", "stopped_at_boundary",
        "window_residual"]),
    (_CLASSIFY_LEFT, "classify.json", (), [
        "agreement", "base_points", "bound_check_radius", "command", "config", "horizon",
        "limit_estimates", "series_verdicts", "side", "verdict"]),
    (_CLASSIFY_LEFT, "classify.json", ("config",), [
        "divergence_product_tol", "divergence_threshold", "product_cauchy_tol", "summable_tol",
        "summable_window"]),
    (_CLASSIFY_RIGHT, "classify.json", (), [
        "base_point", "command", "config", "distortion_checkpoints", "horizon", "limit_estimate",
        "side", "tail_movement", "verdict"]),
    (_VERIFY, "verify.json", (), [
        "coefficient", "command", "draws", "empirical_coefficient", "kind", "min_margin", "seed",
        "worst"]),
    (_VERIFY, "verify.json", ("worst",), ["lhs", "margin", "rhs", "w", "z"]),
    (_ESCAPE, "gallery.json", (), [
        "achieved_n", "certs", "command", "example", "exhausted", "map_count", "milestone_values",
        "milestones", "requested_n"]),
    (_ESCAPE, "gallery.json", ("certs", 0), [
        "k", "n", "return_residual", "shift_rate", "target_gap", "value_back", "value_before",
        "value_out"]),
    (_DENSE, "gallery.json", (), [
        "certs", "command", "example", "exhausted", "map_count", "milestones", "targets"]),
    (_DENSE, "gallery.json", ("certs", 0), ["delta", "deviation", "index", "k", "residual"]),
    (_FIXED, "fixed_points.json", (), [
        "command", "guard", "horizon", "limit_estimate", "min_deficit", "orbit_gap", "points",
        "residual_max"]),
], ids=["straighten", "classify-left", "classify-config", "classify-right", "verify",
        "verify-worst", "escape-return", "escape-return-cert", "dense", "dense-cert",
        "fixed-points"])
def test_json_artifact_key_sets(tmp_path, argv, artifact, path, keys):
    assert cli.main(["--out", str(tmp_path)] + argv) == 0
    doc = _strict_json(tmp_path / artifact)
    if "certs" in doc:
        assert len(doc["certs"]) == 1
    for step in path:
        doc = doc[step]
    assert sorted(doc) == keys


def test_bad_stream_exits_2(tmp_path):
    assert cli.main(["--out", str(tmp_path), "simulate", "--stream", "missing.json"]) == 2
    assert cli.main(["--out", str(tmp_path), "simulate", "--stream", '{"type": "nope"}']) == 2
    assert cli.main(["--out", str(tmp_path), "simulate", "--stream", "{not json"]) == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"type": "cycle", "generators": [{"kind": "scale", "s": [0.7, 0.2]}]}',
         "scale map lacks required key 'factor'"),
        ('{"type": "cycle"}', "cycle stream lacks required key 'generators'"),
    ],
)
def test_stream_missing_key_names_key_and_map(tmp_path, capsys, spec, message):
    assert cli.main(["--out", str(tmp_path), "simulate", "--stream", spec]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "orbit.csv").exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"type": "rule", "name": "scale_product", "params": null}', "rule stream params must be a JSON object"),
        ('{"type": "rule", "name": ["x"]}', "rule stream name must be a string"),
        ('{"type": "cycle", "generators": {"kind": "scale", "factor": [0.5, 0]}}',
         "cycle stream generators must be a JSON array"),
        ('{"type": "list", "generators": [{"kind": "blaschke", "zeros": 5}]}', "blaschke zeros must be a JSON array"),
        ('{"type": "cycle", "generators": [{"kind": "scale", "factor": [0.5]}]}',
         "scale factor must be a JSON array of 2 items"),
        ('{"type": "cycle", "generators": [{"kind": "compose", "parts": {"kind": "monomial", "power": 2}}]}',
         "compose parts must be a JSON array"),
        ('{"type": "cycle", "generators": [{"kind": "mobius", "matrix": [[1, 0]]}]}',
         "mobius matrix must be a JSON array of 4 items"),
    ],
)
def test_stream_of_the_wrong_shape_exits_2_naming_the_field(tmp_path, capsys, spec, message):
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "simulate", "--stream", spec]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_stream_file_with_array_top_level_exits_2(tmp_path, capsys):
    p = tmp_path / "stream.json"
    p.write_text("[1]", encoding="utf-8")
    assert cli.main(["--out", str(tmp_path), "simulate", "--stream", str(p)]) == 2
    assert "a stream must be a JSON object, got [1]" in capsys.readouterr().err
    assert not (tmp_path / "orbit.csv").exists()


def test_non_object_generator_exits_2_naming_it(tmp_path, capsys):
    spec = '{"type": "cycle", "generators": [{"kind": "scale", "factor": [0.5, 0]}, 1]}'
    assert cli.main(["--out", str(tmp_path), "simulate", "--stream", spec]) == 2
    assert "a map must be a JSON object, got 1" in capsys.readouterr().err
    assert not (tmp_path / "orbit.csv").exists()


OVERFLOWING = '{"type": "rule", "name": "scale_product", "params": {"power": 100}}'


@pytest.mark.parametrize("argv", [
    ["simulate", "--side", "left", "-N", "2000"],
    ["simulate", "--side", "right", "-N", "2000"],
    ["classify", "--side", "left", "-N", "2000"],
    ["classify", "--side", "right", "-N", "2000"],
    ["straighten", "-N", "2000"],
], ids=["simulate-left", "simulate-right", "classify-left", "classify-right", "straighten"])
def test_scale_product_past_overflow_exits_0(tmp_path, argv):
    # (n + 1) ** 100 overflows a float from n = 1209 on
    rc = cli.main(["--out", str(tmp_path), argv[0], "--stream", OVERFLOWING] + argv[1:])
    assert rc == 0
    assert not (tmp_path / "diagnostics.json").exists()


def test_scale_product_overflow_at_the_first_step(tmp_path):
    spec = '{"type": "rule", "name": "scale_product", "params": {"power": 2000}}'
    rc = cli.main(["--out", str(tmp_path), "simulate", "--stream", spec, "-N", "3",
                   "--seed-point", "0.5"])
    assert rc == 0
    assert all(row.split(",")[3] == "0.5" for row in _lines(tmp_path / "orbit.csv")[1:])


def test_left_orbit_rounding_onto_the_circle_exits_0(tmp_path):
    spec = ('{"type": "cycle", "generators": [{"kind": "mobius", "domain": "disc",'
            ' "matrix": [[1, 0], [0.6, 0], [0.6, 0], [1, 0]]}]}')
    rc = cli.main(["--out", str(tmp_path), "simulate", "--stream", spec, "-N", "200"])
    assert rc == 0
    rows = [[float(t) for t in row.split(",")] for row in _lines(tmp_path / "orbit.csv")[1:]]
    assert len(rows) == 201
    assert all(math.isfinite(t) for row in rows for t in row)
    assert 0.0 < 1.0 - rows[-1][3] < 1e-12 and rows[-1][6] == 0.0


def test_non_finite_stream_exits_2(tmp_path):
    for spec in (
        '{"type":"cycle","generators":[{"kind":"scale","factor":[NaN,0]}]}',
        '{"type":"rule","name":"scale_product","params":{"power":NaN}}',
    ):
        assert cli.main(["--out", str(tmp_path), "simulate", "--stream", spec]) == 2
        assert not (tmp_path / "orbit.csv").exists()


_BIG = "1" + "0" * 400  # an integer no float holds


@pytest.mark.parametrize("gen", [
    '{"kind": "scale", "factor": [true, 0]}',
    '{"kind": "scale", "factor": [%s, 0]}' % _BIG,
    '{"kind": "blaschke", "zeros": [[0.3, 0]], "phase": "0.5"}',
    '{"kind": "blaschke", "zeros": [[0.3, 0]], "phase": true}',
    '{"kind": "blaschke", "zeros": [[0.3, 0]], "phase": %s}' % _BIG,
    '{"kind": "hp_affine", "translation": [0, 1], "scale": true}',
    '{"kind": "hp_affine", "translation": [0, 1], "scale": "2"}',
    '{"kind": "mobius", "matrix": [[true, 0], [0, 0], [0, 0], [1, 0]]}',
], ids=["scale-true", "scale-int-1e400", "phase-string", "phase-true", "phase-int-1e400",
        "hp-scale-true", "hp-scale-string", "mobius-true"])
def test_map_spec_number_that_is_no_json_number_exits_2(tmp_path, capsys, gen):
    # complex() and float() would read true as 1 and "0.5" as 0.5, and a
    # 400-digit integer escaped as an OverflowError
    spec = '{"type": "cycle", "generators": [%s]}' % gen
    assert cli.main(["--out", str(tmp_path), "simulate", "-N", "3", "--stream", spec]) == 2
    assert "bad stream spec: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_orbit_point_that_is_no_json_number_exits_2(tmp_path, capsys):
    orbit = tmp_path / "orbit.json"
    orbit.write_text("[[0.5, 0], [0.5, false]]", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["--out", str(out), "straighten", "--side", "right", "-N", "1", "--orbit", str(orbit),
                   "--stream", '{"type": "cycle", "generators": [{"kind": "monomial", "power": 2}]}'])
    assert rc == 2
    assert "bad orbit file: orbit point must be a number" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("power", ["true", '"2"', "null", "[2]", "1%s" % ("0" * 400)],
                         ids=["true", "string", "null", "list", "int-1e400"])
def test_scale_product_power_that_is_no_json_number_exits_2(tmp_path, capsys, power):
    # float() would read true as 1.0 and "2" as 2.0
    spec = '{"type": "rule", "name": "scale_product", "params": {"power": %s}}' % power
    assert cli.main(["--out", str(tmp_path), "simulate", "-N", "3", "--stream", spec]) == 2
    assert "bad stream spec: scale_product power must" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", [
    '{"type":"cycle","generators":[{"kind":"hp_affine","translation":[0,1],"scale":1e300}]}',
    '{"type":"cycle","generators":[{"kind":"monomial","power":1%s}]}' % ("0" * 400),
], ids=["hp_affine-scale-1e300", "monomial-power-1e400"])
def test_overflowing_generator_exits_2_before_any_artifact(tmp_path, capsys, spec):
    # the half-plane scale overflows the Cayley conjugation into NaN
    # entries; the power does not convert to a float
    assert cli.main(["--out", str(tmp_path), "simulate", "-N", "3", "--stream", spec]) == 2
    assert "bad stream spec" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_classify_right_base_point_in_the_band_is_not_its_own_limit(tmp_path):
    # 0.9999999999998 passes disc_point but lies in the engines' hold band;
    # only computed values are held, so R_n(z0) moves off it
    spec = ('{"type": "cycle", "generators": [{"kind": "blaschke", "zeros": [[0.3, 0], [-0.2, 0.1]],'
            ' "phase": 0.4}, {"kind": "scale", "factor": [0.7, 0]}]}')
    rc = cli.main(["--out", str(tmp_path), "classify", "--side", "right", "--stream", spec,
                   "-N", "300", "--base-point", "0.9999999999998"])
    assert rc == 0
    doc = _strict_json(tmp_path / "classify.json")
    assert abs(complex(*doc["limit_estimate"]) - 0.9999999999998) > 0.5
    assert doc["verdict"] == "constant_limit"


def test_out_dir_created(tmp_path):
    nested = tmp_path / "deep" / "er"
    rc = cli.main(["--out", str(nested), "simulate", "--stream", BASEL, "-N", "5"])
    assert rc == 0
    assert (nested / "orbit.csv").exists()


def _per_field(*fields):
    """A CSV row as formatted field by field: every number through %.17g."""
    return ",".join(f if isinstance(f, str) else "%.17g" % float(f) for f in fields)


class _ScriptedOrbit:
    """Orbit engine stand-in whose advance steps through given value lists."""

    def __init__(self, seeds, steps):
        self.seeds = seeds
        self.values = list(seeds)
        self._steps = iter(steps)

    def advance(self):
        self.values = list(next(self._steps))
        return self


def _orbit_lines(seeds, steps, trail=None):
    """The orbit.csv lines _orbit_rows makes of a scripted orbit, and the
    same lines formatted field by field."""
    # the rows come as texts of a block of lines each
    made = "\n".join(cli._orbit_rows(_ScriptedOrbit(seeds, steps), len(steps), trail)).split("\n")
    expected, old = [], seeds
    for n, new in enumerate([seeds, *steps]):
        for s, ov, nv in zip(seeds, old, new):
            step = _omega_raw(ov, nv) if n else 0.0
            expected.append(_per_field(str(n), s.real, s.imag, nv.real, nv.imag, _omega_raw(0j, nv), step))
        old = new
    return made, expected


def test_orbit_rows_bytes_match_per_field_format():
    seeds = (-0j, 0j)  # equal as values, different columns
    nan, inf = float("nan"), float("inf")
    values = (-0.5 + 5e-324j, 1e-310 - 0.25j, complex(-0.0, -0.0), 0.1 + 0.2j,
              complex(nan, 0.3), complex(-inf, 1e-320))
    steps = [[values[(n + k) % 6] * (1.0 - 2.0 ** -n) for k in range(2)] for n in range(1, 12)]
    # the same value objects carried over, as for a held right seed
    steps += [[0.3 - 0.4j, steps[-1][1]]] * 3
    trail = []
    rows, expected = _orbit_lines(seeds, steps, trail)
    assert rows == expected
    assert rows[0].startswith("0,-0,-0,") and rows[1].startswith("0,0,0,")
    assert rows[-1].startswith("14,0,0,")
    assert {"nan", "-inf", "4.9406564584124654e-324"} <= {f for r in rows for f in r.split(",")}
    assert [repr(v) for v in trail] == [repr(new[0]) for new in [seeds, *steps]]


def test_orbit_rows_bytes_match_per_field_format_across_blocks():
    # two seeds over 1 000 steps: blocks of CSV_CHUNK // 2 steps, the last
    # one short; seed 1 is held (the same value object) from step 200 into
    # the second block, released at step 301 and held again at another
    # value over steps 401-410; infinities come only in the third block,
    # whose origin distances then go value by value
    block = cli.CSV_CHUNK // 2
    assert 300 // block == 1 and 200 // block == 0 and 1000 > 3 * block
    nan, inf = float("nan"), float("inf")
    odd = (-0.5 + 5e-324j, 1e-310 - 0.25j, complex(-0.0, -0.0), complex(nan, 0.3),
           complex(0.1, -0.0), complex(-1e-320, nan), 0.3 + 0.2j, complex(2.2250738585072014e-308, -0.0))
    seeds = (-0j, complex(5e-324, -0.0))
    steps = []
    for n in range(1, 1001):
        v0, v1 = odd[n % len(odd)], odd[(3 * n + 1) % len(odd)] * 0.5
        if 2 * block < n <= 3 * block and n % 7 == 0:
            v0 = complex(-inf, 1e-320) if n % 2 else complex(inf, -0.0)
        # a fresh object at every step, unless held
        v1 = steps[-1][1] if 200 <= n <= 300 or 401 <= n <= 410 else complex(v1.real, v1.imag)
        steps.append([complex(v0.real, v0.imag), v1])
    assert steps[199][1] is steps[299][1] is not steps[300][1]
    assert steps[399][1] is steps[409][1] != steps[199][1]
    trail = []
    rows, expected = _orbit_lines(seeds, steps, trail)
    assert len(rows) == len(expected) == 2 * 1001
    assert rows == expected
    fields = {f for r in rows for f in r.split(",")}
    assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "2.2250738585072014e-308"} <= fields
    assert [repr(v) for v in trail] == [repr(new[0]) for new in [seeds, *steps]]


def test_series_and_straighten_rows_bytes_match_per_field_format():
    odd = (-1.5e-320, float("nan"), -0.0, 0.30000000000000004)
    steps = [(1, *odd[:3], complex(odd[3], odd[0])), (2, *odd[1:], complex(odd[2], odd[1]))]
    assert cli._series_lines(steps, full="") == "\n".join(
        [_per_field("1", *odd[:3], odd[3], odd[0]), _per_field("2", *odd[1:], odd[2], odd[1])]
    )
    res = SimpleNamespace(steps=2, residual_trace=(odd[0],), probe_trace=odd[1:3],
                          distortion_trace=(float("inf"), odd[3]))
    assert list(cli._straighten_rows(res)) == [
        _per_field("1", "", odd[1], float("inf")),
        _per_field("2", odd[0], odd[2], odd[3]),
    ]


def test_margins_rows_bytes_match_per_field_format(tmp_path):
    assert cli.main(["--out", str(tmp_path), "verify", "--kind", "transfer",
                     "--fuzz", "4", "--seed", "3"]) == 0
    drawn = []
    rep = bounds.fuzz_margins("transfer", 4, 3, coefficient=2.0, row=drawn.append)

    def cfmt(z):
        return "%.17g%+.17gj" % (z.real, z.imag)

    assert _lines(tmp_path / "margins.csv")[1:] == [
        _per_field(rep.kind, "3", cfmt(z), cfmt(w), lhs, rhs, m) for z, w, lhs, rhs, m in drawn
    ]


def test_simulate_signed_zero_seeds_keep_their_columns(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "simulate", "--stream", BASEL, "-N", "2",
                   "--seed-point=-0", "--seed-point", "0"])
    assert rc == 0
    seed_cols = [",".join(line.split(",")[1:3]) for line in _lines(tmp_path / "orbit.csv")[1:]]
    assert seed_cols == ["-0,0", "0,0"] * 3


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_peak_memory_is_flat_in_n(tmp_path):
    # rows stream to disk a chunk at a time, so 8x the rows costs no more memory
    peaks = [
        _traced_peak(["--out", str(tmp_path / str(n)), "simulate", "--stream", BASEL, "-N", str(n),
                      "--seed-point", "0", "--seed-point", "0.3+0.2j"])
        for n in (10_000, 80_000)
    ]
    assert abs(peaks[1] - peaks[0]) < 512 * 1024
    assert max(peaks) < 2_000_000


def test_straighten_report_peak_memory_is_flat_in_n(tmp_path):
    # the encoder converts each gamma as it reaches it: writing the report
    # copies none of it, so 4x the gammas costs no more memory
    stream = ifs.stream_from_json(json.loads(BASEL))
    drop = ("probe_trace", "residual_trace", "distortion_trace", "h_extra")
    peaks = []
    for n in (2_000, 8_000):
        res = straighten.left_straighten(stream, n, tol=0.0)
        assert res.steps == len(res.gammas) == n
        tracemalloc.start()
        try:
            doc = cli._report(res, drop=drop, command="straighten", side="left", horizon=n)
            cli._write_json(tmp_path / f"{n}.json", doc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 512 * 1024


def test_simulate_peak_memory_per_row(tmp_path):
    # no orbit history, no row list and no joined text: one chunk of rows at most
    argv = ["--out", str(tmp_path), "simulate", "--stream", BASEL, "-N", "20000",
            "--seed-point", "0", "--seed-point", "0.3+0.2j"]
    peak = _traced_peak(argv)
    rows = len(_lines(tmp_path / "orbit.csv")) - 1
    assert rows == 2 * 20_001
    assert peak / rows <= 350
    assert peak <= 2_000_000


def test_escape_return_svg_peak_memory(tmp_path):
    # the orbit rows and the polyline stream; the orbit's trail, turned into
    # its Cayley points in place, is the one O(N) list (1.9-2.3 MB over
    # Python 3.10-3.13; a second list of the points made it 2.9-3.4 MB)
    argv = ["--out", str(tmp_path), "gallery", "--example", "escape_return", "--svg", "--nmax", "8"]
    assert _traced_peak(argv) <= 2_600_000


@pytest.mark.parametrize("argv, n", [
    (["verify", "--kind", "transfer", "--fuzz"], 1_000),
    (["classify", "--stream", BASEL, "-N"], 2_500),
    (["classify", "--side", "right", "--stream", BASEL, "-N"], 5_000),
    # a rule stream of scalings stays on the matrix path
    (["simulate", "--side", "right", "--stream", BASEL, "-N"], 5_000),
], ids=["verify", "classify-left", "classify-right", "simulate-right-rule"])
def test_folded_commands_peak_memory_is_flat_in_n(tmp_path, argv, n):
    # verify folds its draws and classify its series (left) or tail (right)
    # as they run, the rows stream to disk, and the right engine keeps no
    # generator on the matrix path: 4x the size costs no more memory
    peaks = [_traced_peak(["--out", str(tmp_path / str(size))] + argv + [str(size)]) for size in (n, 4 * n)]
    assert abs(peaks[1] - peaks[0]) < 512 * 1024
