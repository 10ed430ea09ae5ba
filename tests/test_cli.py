"""End-to-end command line checks: wire formats, exit codes, determinism."""

import csv
import json

import pytest

import focksobolev

PARAMS = {"n": 1, "alpha": 1.0, "m": 0, "p": 2.0, "q": 2.0}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def params_file(tmp_path):
    return write_json(tmp_path / "params.json", PARAMS)


def parse_jsonl(text):
    rows = [json.loads(line) for line in text.splitlines() if line]
    return rows[0], rows[1:]


def test_lattice_report(cli, params_file, tmp_path):
    out = tmp_path / "lat.jsonl"
    res = cli(["lattice", "--n", "1", "--r", "1.0", "--domain-radius", "6.0",
               "--probes", "2000", "--out", str(out)])
    assert res.returncode == 0
    config, rows = parse_jsonl(out.read_text())
    assert config["type"] == "config"
    assert config["command"] == "lattice"
    assert len(rows) == 1
    assert rows[0]["min_pair_distance"] >= 1.0
    assert rows[0]["uncovered_probe_count"] == 0


def test_config_echo_contains_defaults(cli, params_file, tmp_path):
    out = tmp_path / "v.jsonl"
    res = cli(["verify-norms", "--params", "@" + params_file, "--out", str(out)])
    assert res.returncode == 0
    config, rows = parse_jsonl(out.read_text())
    assert config["params"] == PARAMS
    assert config["version"]
    assert all(r["passed"] for r in rows)


def test_json_lines_round_trip(cli, params_file, tmp_path):
    out = tmp_path / "c.jsonl"
    res = cli(["carleson", "--params", "@" + params_file,
               "--measure", '{"kind": "gaussian", "rate": 1.0}',
               "--out", str(out)])
    assert res.returncode == 0
    for line in out.read_text().splitlines():
        obj = json.loads(line)
        assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == line


def test_carleson_negative_verdict_still_exits_zero(cli, tmp_path):
    params = write_json(tmp_path / "p.json", {"n": 1, "alpha": 1.0, "m": 0, "p": 4.0, "q": 2.0})
    out = tmp_path / "c.jsonl"
    res = cli(["carleson", "--params", "@" + params,
               "--measure", '{"kind": "lebesgue"}', "--out", str(out)])
    assert res.returncode == 0
    _, rows = parse_jsonl(out.read_text())
    assert rows[0]["is_carleson"] == 0


def test_carleson_probe_of_decaying_polygrowth_exits_zero(cli, params_file, tmp_path):
    """A density (1+|z|)^power with power < 0 adds no envelope growth to
    the embedding ratio's integrand."""
    out = tmp_path / "c.jsonl"
    res = cli(["carleson", "--params", "@" + params_file,
               "--measure", '{"kind": "polygrowth", "power": -2.0}',
               "--probe-budget", "3", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    _, rows = parse_jsonl(out.read_text())
    assert rows[0]["embedding_lower_bound"] > 0.0


def test_carleson_overflowing_density_reports_an_infinite_band(cli):
    """(1+|z|)^400 overflows on the stages at n = 1 and n = 2: an infinite
    criterion reads as divergence, the band of infinite criteria is inf,
    not inf/inf, no criterion reads nan, and numpy's warnings stay off
    stderr."""
    for n in (1, 2):
        res = cli(["carleson", "--params", json.dumps(dict(PARAMS, n=n)),
                   "--measure", '{"kind": "polygrowth", "power": 400}'])
        assert res.returncode == 0 and res.stderr == ""
        _, rows = parse_jsonl(res.stdout)
        assert rows[0]["comparability_band"] == "inf"
        assert rows[0]["is_carleson"] is False and rows[0]["divergent"] is True
        assert "nan" not in rows[0]["criterion_values"].values()


def test_lattice_domain_below_2r_is_a_config_error(cli):
    res = cli(["lattice", "--n", "1", "--r", "1", "--domain-radius", "1"])
    assert res.returncode == 2
    assert res.stderr == "error: lattice: domain_radius must be at least 2r\n"
    assert res.stdout == ""


def test_verify_norms_cells_at_the_default_cap_changes_nothing(cli, tmp_path):
    """--cells sets the cap only: at the default cap every row keeps its own
    cube and its value, error estimate and cells."""
    params = write_json(tmp_path / "p.json", {"n": 1, "alpha": 1.0, "m": 1, "p": 2.0, "q": 2.0})
    plain = cli(["verify-norms", "--params", "@" + params])
    capped = cli(["verify-norms", "--params", "@" + params, "--cells", "256"])
    assert plain.returncode == 0 and capped.returncode == 0
    assert plain.stdout.splitlines()[1:] == capped.stdout.splitlines()[1:]
    assert len(plain.stdout.splitlines()) == 5


@pytest.mark.parametrize("args", [
    ["lattice", "--n", "1", "--r", "1.0", "--domain-radius", "6.0"],
    ["compop", "--params", "{}", "--symbol", "{}"],
    ["suite", "--params", "{}"],
    ["carleson", "--params", "{}", "--measure", "{}"],
    ["verify-norms", "--params", "{}"],
])
def test_threads_only_where_the_quadrature_runs(cli, args):
    """The quadrature, the only thing --threads ever sped up, now runs
    serially, so every subcommand refuses the flag before anything runs."""
    res = cli(args + ["--threads", "2"])
    assert res.returncode == 2
    assert "unrecognized arguments: --threads 2" in res.stderr


@pytest.mark.parametrize("flag,value", [("--cells", "1")])
def test_verify_norms_rejects_out_of_range_grid_flags(cli, params_file, flag, value):
    res = cli(["verify-norms", "--params", "@" + params_file, flag, value])
    assert res.returncode == 2
    assert flag in res.stderr


def test_verify_norms_rejects_cells_for_a_sup_norm(cli, tmp_path):
    """A sup norm runs no quadrature, so a cap on its cells would do nothing."""
    params = write_json(tmp_path / "p.json",
                        {"n": 1, "alpha": 1.0, "m": 1, "p": "inf", "q": 2.0})
    res = cli(["verify-norms", "--params", "@" + params, "--cells", "8"])
    assert res.returncode == 2
    assert "--cells" in res.stderr


def test_compop_row(cli, params_file, tmp_path):
    out = tmp_path / "op.jsonl"
    res = cli(["compop", "--params", "@" + params_file,
               "--symbol", '{"matrix": [[0.5]]}', "--out", str(out)])
    assert res.returncode == 0
    _, rows = parse_jsonl(out.read_text())
    assert rows[0]["bounded"] == 1
    assert rows[0]["compact"] == 1
    assert '"bounded":true' in out.read_text().splitlines()[1]


def test_csv_format(cli, params_file, tmp_path):
    out = tmp_path / "v.csv"
    res = cli(["verify-norms", "--params", "@" + params_file,
               "--format", "csv", "--out", str(out)])
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    assert header == sorted(header)
    body = list(csv.DictReader(lines[1:]))
    assert len(body) >= 4


def test_unknown_param_key_fatal(cli, tmp_path):
    bad = write_json(tmp_path / "p.json", dict(PARAMS, alpah=2.0))
    res = cli(["verify-norms", "--params", "@" + bad])
    assert res.returncode == 2
    assert "alpah" in res.stderr


def test_missing_required_exponent_fatal(cli, tmp_path):
    bad = write_json(tmp_path / "p.json", {"n": 1, "alpha": 1.0, "m": 0, "p": 2.0})
    res = cli(["verify-norms", "--params", "@" + bad])
    assert res.returncode == 2


def test_malformed_json_fatal(cli, tmp_path):
    bad = tmp_path / "p.json"
    bad.write_text("{not json")
    res = cli(["verify-norms", "--params", "@" + str(bad)])
    assert res.returncode == 2


def test_unknown_measure_kind_fatal(cli, params_file):
    res = cli(["carleson", "--params", "@" + params_file,
               "--measure", '{"kind": "cauchy"}'])
    assert res.returncode == 2


@pytest.mark.parametrize("measure", [
    pytest.param('{"kind": "lebesgue", "scale": NaN}', id="lebesgue-scale-nan"),
    pytest.param('{"kind": "polygrowth", "power": NaN}', id="polygrowth-power-nan"),
    pytest.param('{"kind": "ring", "ring_radius": Infinity, "ring_width": 1.0}',
                 id="ring-radius-inf"),
    pytest.param('{"kind": "atoms", "locations": [[0, 0]], "weights": [NaN]}',
                 id="atom-weight-nan"),
    pytest.param('{"kind": "atoms", "locations": [[NaN, 0]]}', id="atom-location-nan"),
])
def test_non_finite_measure_input_fatal(cli, params_file, measure):
    """Unchecked, a NaN density or weight gives a Carleson verdict on nan
    values, an infinite ring runs, and a NaN location fails inside scipy."""
    res = cli(["carleson", "--params", "@" + params_file, "--measure", measure])
    assert res.returncode == 2
    assert "must be finite" in res.stderr


_COMPOP = ["compop", "--params", json.dumps(PARAMS), "--symbol", '{"matrix": [[0.5]]}']
_CARLESON = ["carleson", "--params", json.dumps(PARAMS),
             "--measure", '{"kind": "gaussian", "rate": 1.0}']
_LATTICE = ["lattice", "--n", "1"]


@pytest.mark.parametrize("args,flag", [
    pytest.param(_COMPOP + ["--radii", "nan"], "--radii", id="radii-nan"),
    pytest.param(_COMPOP + ["--radii", "0,inf"], "--radii", id="radii-inf"),
    pytest.param(_COMPOP + ["--radii", "1e400"], "--radii", id="radii-overflow"),
    pytest.param(_CARLESON + ["--ball-radius", "-1"], "--ball-radius", id="ball-radius-neg"),
    pytest.param(_CARLESON + ["--ball-radius", "nan"], "--ball-radius", id="ball-radius-nan"),
    pytest.param(_CARLESON + ["--t", "0"], "--t", id="t-zero"),
    pytest.param(_LATTICE + ["--r", "-1", "--domain-radius", "6"], "--r", id="r-neg"),
    pytest.param(_LATTICE + ["--r", "1", "--domain-radius", "nan"], "--domain-radius",
                 id="domain-radius-nan"),
    pytest.param(_LATTICE + ["--r", "1", "--domain-radius", "6", "--probes", "-5"], "--probes",
                 id="probes-neg"),
    pytest.param(_CARLESON + ["--probe-budget", "-3"], "--probe-budget",
                 id="probe-budget-neg"),
])
def test_numeric_flags_checked_when_parsed(cli, args, flag):
    """A bad number is refused by the parser, before anything runs."""
    res = cli(args)
    assert res.returncode == 2
    assert f"argument {flag}: expected" in res.stderr
    assert res.stdout == ""


def _symbol(symbol):
    return ["compop", "--params", json.dumps(PARAMS), "--symbol", json.dumps(symbol)]


def _params(**changes):
    return ["verify-norms", "--params", json.dumps(dict(PARAMS, **changes))]


def _measure(measure, params=PARAMS):
    return ["carleson", "--params", json.dumps(params), "--measure", json.dumps(measure)]


@pytest.mark.parametrize("args,field", [
    pytest.param(["carleson", "--params", json.dumps(PARAMS),
                  "--measure", '{"kind": "lebesgue", "n": "x"}'], "measure.n",
                 id="measure-n-string"),
    pytest.param(_symbol({"matrix": 3}), "symbol.matrix", id="matrix-number"),
    pytest.param(_symbol({"matrix": [[["a", 0]]]}), "symbol.matrix", id="matrix-entry-string"),
    pytest.param(_symbol({"components": [[{"beta": ["a"], "coeff": 0.5}]]}),
                 "symbol.components.beta", id="beta-string"),
    pytest.param(_symbol({"matrix": [[0.5]],
                          "u": {"kind": "kernel", "center": [0], "coeff": ["x", 1]}}),
                 "symbol.u.coeff", id="kernel-coeff-string"),
    pytest.param(_symbol({"matrix": [[0.5]], "u": {"kind": "kernel", "center": [1],
                                                   "normalized": "false"}}),
                 "symbol.u.normalized", id="kernel-normalized-string"),
    pytest.param(_symbol({"matrix": [[0.5]],
                          "u": {"kind": "one", "terms": "anything", "center": "zz"}}),
                 "symbol.u", id="one-weight-foreign-keys"),
    pytest.param(_params(m=1.5), "params.m", id="m-fraction"),
    pytest.param(_params(n=1.7), "params.n", id="n-fraction"),
    pytest.param(_params(n=True), "params.n", id="n-bool"),
    pytest.param(_symbol({"components": [[{"beta": [1.5], "coeff": 0.5}]]}),
                 "symbol.components.beta", id="beta-fraction"),
    pytest.param(_measure({"kind": "gaussian", "rate": True}), "measure.rate",
                 id="rate-bool"),
    pytest.param(_measure({"kind": "gaussian", "rate": "2"}), "measure.rate",
                 id="rate-string"),
    pytest.param(_params(alpha="1"), "params.alpha", id="alpha-string"),
    pytest.param(_measure({"kind": "atoms", "locations": [["1", "0"]]}),
                 "measure.locations", id="location-strings"),
    pytest.param(_measure({"kind": "atoms", "locations": [[1, 0]], "weights": [True]}),
                 "measure.weights", id="weight-bool"),
    pytest.param(_symbol({"matrix": [[True]]}), "symbol.matrix", id="matrix-entry-bool"),
])
def test_malformed_structured_input_is_a_config_error(cli, args, field):
    """A wrong type or a non-integral integer in --params, --measure or
    --symbol exits 2 with an error naming the field: no traceback, and no
    integer is truncated."""
    res = cli(args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {field}")


@pytest.mark.parametrize("n", [1, 2])
def test_empty_atom_list_is_the_zero_measure(cli, n):
    """No atoms is the zero measure: Carleson and vanishing, every criterion 0."""
    res = cli(_measure({"kind": "atoms", "locations": []}, dict(PARAMS, n=n)))
    assert res.returncode == 0, res.stderr
    _, rows = parse_jsonl(res.stdout)
    assert rows[0]["is_carleson"] is rows[0]["is_vanishing"] is True
    assert set(rows[0]["criterion_values"].values()) == {0.0}


def test_overflowing_pullback_weight_is_a_config_error(cli):
    """Below the diagonal the unnormalised kernel at centre 100 under z/2
    overflows the pullback weight: exit 2 with a message, and no rows."""
    symbol = {"matrix": [[0.5]], "u": {"kind": "kernel", "center": [100], "normalized": False}}
    res = cli(["compop", "--params", json.dumps(dict(PARAMS, p=4.0)),
               "--symbol", json.dumps(symbol)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: pullback weight exponent 2266 exceeds 700")


def test_suite_reports_an_overflowing_scenario_and_runs_the_rest(cli):
    """At p = 4, q = 3 the square pullback's weight overflows: its row says
    so and claims no agreement, and every other scenario keeps its verdict."""
    res = cli(["suite", "--params", json.dumps(dict(PARAMS, p=4.0, q=3.0))])
    assert res.returncode == 0
    rows = [json.loads(line) for line in res.stdout.splitlines()[1:]]
    compop = {r["name"]: r for r in rows if r["kind"] == "compop"}
    assert len(compop) == 8
    square = compop.pop("square")
    assert square["regime"] == "pullback-overflow"
    assert square["bounded"] is square["compact"] is square["agreement"] is None
    assert square["note"].startswith("pullback weight exponent")
    assert all(r["agreement"] is True for r in compop.values())
    assert len(rows) == 12 and all(r["agreement"] for r in rows if r["kind"] == "carleson")


def test_kernel_weight_unnormalized(cli):
    """A JSON false drops the kernel weight's normalisation (true gives 1.4747)."""
    res = cli(_symbol({"matrix": [[0.5]], "u": {"kind": "kernel", "center": [1],
                                                "normalized": False}}))
    assert res.returncode == 0, res.stderr
    _, rows = parse_jsonl(res.stdout)
    sup = rows[0]["criterion_values"]["log_transform_sup"]
    assert sup == pytest.approx(2.474729885849392, rel=1e-12)


@pytest.mark.parametrize("args", [
    ["lattice", "--n", "1", "--r", "1.0", "--domain-radius", "4.0", "--probes", "100"],
    ["carleson", "--params", json.dumps(PARAMS),
     "--measure", '{"kind": "atoms", "locations": [[0, 0], [1, 0]]}'],
    ["compop", "--params", json.dumps(PARAMS), "--symbol", '{"matrix": [[0.5]]}',
     "--radii", "1"],
    ["verify-norms", "--params", json.dumps(dict(PARAMS, p="inf"))],
    ["suite", "--params", json.dumps(dict(PARAMS, q="inf"))],
], ids=lambda args: args[0])
def test_every_row_names_its_subcommand(cli, args):
    res = cli(args)
    assert res.returncode == 0, res.stderr
    config, rows = parse_jsonl(res.stdout)
    assert config["command"] == args[0]
    assert config["version"] == focksobolev.__version__
    assert rows and all(row["command"] == args[0] for row in rows)


def test_missing_params_file_io_error(cli):
    res = cli(["verify-norms", "--params", "@/nonexistent/params.json"])
    assert res.returncode == 3


def test_unwritable_output_io_error(cli, params_file):
    res = cli(["lattice", "--n", "1", "--r", "1.0", "--domain-radius", "6.0",
               "--probes", "100", "--out", "/nonexistent/dir/x.jsonl"])
    assert res.returncode == 3


def test_compop_radii_flag(cli, params_file, tmp_path):
    out = tmp_path / "op.jsonl"
    res = cli(["compop", "--params", "@" + params_file,
               "--symbol", '{"matrix": [[0.5]]}',
               "--radii", "0,1,2", "--out", str(out)])
    assert res.returncode == 0


def test_compop_radii_add_probe_rows_only(cli, params_file):
    """--radii adds one probe row per radius and leaves the verdict row, and
    its stages, as the plain run gives them."""
    args = ["compop", "--params", "@" + params_file, "--symbol", '{"scenario": "contraction"}']
    plain = cli(args)
    probed = cli(args + ["--radii", "0,2"])
    assert plain.returncode == 0 and probed.returncode == 0
    _, plain_rows = parse_jsonl(plain.stdout)
    _, rows = parse_jsonl(probed.stdout)
    assert rows[0] == plain_rows[0]
    assert rows[0]["compact"] and rows[0]["stage_radii"] == [6.0, 9.0]
    assert [r["radius"] for r in rows[1:]] == [0.0, 2.0]


def test_report_determinism(cli, params_file, tmp_path):
    args = ["carleson", "--params", "@" + params_file,
            "--measure", '{"kind": "gaussian", "rate": 1.0}']
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert cli(args + ["--out", str(a)]).returncode == 0
    assert cli(args + ["--out", str(b)]).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_when_no_out_flag(cli, params_file):
    res = cli(["compop", "--params", "@" + params_file,
               "--symbol", '{"matrix": [[0.5]]}'])
    assert res.returncode == 0
    config, rows = parse_jsonl(res.stdout)
    assert config["command"] == "compop"
    assert rows
