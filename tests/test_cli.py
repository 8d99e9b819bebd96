"""End-to-end checks of the command line front end: artifacts, schemas,
exit codes, and byte-level reproducibility."""

import filecmp
import json
import tracemalloc
from types import SimpleNamespace

import pytest

from ifslab import bounds, cli, criteria, gallery, holomap, ifs, moebius
from ifslab.geometry import _omega_raw

BASEL = '{"type": "rule", "name": "scale_product", "params": {"power": 2}}'
HARMONIC = '{"type": "rule", "name": "scale_product", "params": {"power": 1}}'
SQUARING = '{"type": "cycle", "generators": [{"kind": "monomial", "power": 2}]}'


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def _stream_file(tmp_path, name, stream):
    p = tmp_path / name
    p.write_text(json.dumps(ifs.stream_to_json(stream)), encoding="utf-8")
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
    assert diag["partial"]["n"] == 2
    assert not (tmp_path / "orbit.csv").exists()


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


def test_verify_unknown_kind(tmp_path):
    # argparse rejects at the choices gate before main's own check
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "verify", "--kind", "sharpest"])
    assert exc.value.code == 2


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
    assert svg == cli._svg_halfplane(pts, list(build.milestone_values))
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


def test_fixed_points(tmp_path):
    f = holomap.Compose((holomap.Mobius(moebius.make_disc_auto(0.1, 0.0)), holomap.Scale(0.5)))
    spec = _stream_file(tmp_path, "stream.json", ifs.GeneratorStream.from_cycle([f]))
    rc = cli.main(["--out", str(tmp_path), "fixed-points", "--stream", spec, "-N", "300"])
    assert rc == 0
    doc = _read_json(tmp_path / "fixed_points.json")
    assert doc["residual_max"] < 1e-9
    assert doc["orbit_gap"] < 1e-6
    assert len(doc["limit_estimate"]) == 2


def test_refusal_writes_diagnostics(tmp_path):
    rot = holomap.Mobius(moebius.make_disc_auto(0.0, 0.7))
    spec = _stream_file(tmp_path, "stream.json", ifs.GeneratorStream.from_cycle([rot]))
    rc = cli.main(["--out", str(tmp_path), "fixed-points", "--stream", spec, "-N", "100"])
    assert rc == 3
    diag = _read_json(tmp_path / "diagnostics.json")
    assert diag["command"] == "fixed-points"
    assert diag["error"] == "TrackingRefusal"
    assert diag["message"]


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


def test_non_finite_stream_exits_2(tmp_path):
    for spec in (
        '{"type":"cycle","generators":[{"kind":"scale","factor":[NaN,0]}]}',
        '{"type":"rule","name":"scale_product","params":{"power":NaN}}',
    ):
        assert cli.main(["--out", str(tmp_path), "simulate", "--stream", spec]) == 2
        assert not (tmp_path / "orbit.csv").exists()


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


def test_orbit_rows_bytes_match_per_field_format():
    seeds = (-0j, 0j)  # equal as values, different columns
    nan, inf = float("nan"), float("inf")
    values = (-0.5 + 5e-324j, 1e-310 - 0.25j, complex(-0.0, -0.0), 0.1 + 0.2j,
              complex(nan, 0.3), complex(-inf, 1e-320))
    steps = [[values[(n + k) % 6] * (1.0 - 2.0 ** -n) for k in range(2)] for n in range(1, 12)]
    # the same value objects carried over, as for a held right seed
    steps += [[0.3 - 0.4j, steps[-1][1]]] * 3
    trail = []
    rows = cli._orbit_rows(_ScriptedOrbit(seeds, steps), 14, trail)
    expected, old = [], seeds
    for n, new in enumerate([seeds, *steps]):
        for s, ov, nv in zip(seeds, old, new):
            step = _omega_raw(ov, nv) if n else 0.0
            expected.append(_per_field(str(n), s.real, s.imag, nv.real, nv.imag, _omega_raw(0j, nv), step))
        old = new
    assert rows == expected
    assert rows[0].startswith("0,-0,-0,") and rows[1].startswith("0,0,0,")
    assert rows[-1].startswith("14,0,0,")
    assert {"nan", "-inf", "4.9406564584124654e-324"} <= {f for r in rows for f in r.split(",")}
    assert [repr(v) for v in trail] == [repr(new[0]) for new in [seeds, *steps]]


def test_series_and_straighten_rows_bytes_match_per_field_format():
    odd = (-1.5e-320, float("nan"), -0.0, 0.30000000000000004)
    rep = SimpleNamespace(terms=odd[:1], partial_sums=odd[1:2], products=odd[2:3],
                          orbit=(complex(odd[3], odd[0]), 0.5j))
    assert cli._series_rows(rep) == [_per_field("1", *odd[:3], odd[3], odd[0])]
    res = SimpleNamespace(steps=2, residual_trace=(odd[0],), probe_trace=odd[1:3],
                          distortion_trace=(float("inf"), odd[3]))
    assert cli._straighten_rows(res) == [
        _per_field("1", "", odd[1], float("inf")),
        _per_field("2", odd[0], odd[2], odd[3]),
    ]


def test_margins_rows_bytes_match_per_field_format(tmp_path):
    assert cli.main(["--out", str(tmp_path), "verify", "--kind", "transfer",
                     "--fuzz", "4", "--seed", "3"]) == 0
    rep = bounds.fuzz_margins("transfer", 4, 3, coefficient=2.0, keep_rows=4)

    def cfmt(z):
        return "%.17g%+.17gj" % (z.real, z.imag)

    assert _lines(tmp_path / "margins.csv")[1:] == [
        _per_field(r.kind, "3", cfmt(r.z), cfmt(r.w), r.lhs, r.rhs, r.margin) for r in rep.rows
    ]


def test_simulate_signed_zero_seeds_keep_their_columns(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "simulate", "--stream", BASEL, "-N", "2",
                   "--seed-point=-0", "--seed-point", "0"])
    assert rc == 0
    seed_cols = [",".join(line.split(",")[1:3]) for line in _lines(tmp_path / "orbit.csv")[1:]]
    assert seed_cols == ["-0,0", "0,0"] * 3


def test_orbit_rows_hold_one_string_each():
    stream = ifs.stream_from_json(json.loads(BASEL))
    cur = ifs.LeftOrbitCursor(stream, (0j, 0.3 + 0.2j))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = cli._orbit_rows(cur, 10_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rows) == 2 * 10_001
    assert held / len(rows) <= 200


def test_simulate_peak_memory_per_row(tmp_path):
    # no orbit history besides the rows themselves and the joined text
    argv = ["--out", str(tmp_path), "simulate", "--stream", BASEL, "-N", "20000",
            "--seed-point", "0", "--seed-point", "0.3+0.2j"]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(_lines(tmp_path / "orbit.csv")) - 1
    assert rows == 2 * 20_001
    assert peak / rows <= 350
