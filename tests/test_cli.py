import json

import pytest

import ptlab.cli as cli
from ptlab.cli import main
from ptlab.graph_io import read_digraph, read_graph
from ptlab.reports import validate_report


def run(args):
    return main([str(a) for a in args])


def test_gen_and_recognize_roundtrip(tmp_path):
    out = tmp_path / "rs.el"
    assert run(["--seed", 3, "gen", "rs", "--k", 5, "--ap", "exact",
                "--out", out]) == 0
    g = read_graph(out)
    assert g.n == 30
    sidecar = json.loads((tmp_path / "rs.el.json").read_text())
    assert sidecar["construction"] == "rs"
    assert sidecar["packing"]["kind"] == "triangle"
    assert sidecar["farness"] > 0
    assert set(sidecar["parts"]) == {"X", "Y", "Z"}

    rec = tmp_path / "rec.json"
    assert run(["recognize", "--property", "triangle-free", "--in", out,
                "--out", rec]) == 0
    report = json.loads(rec.read_text())
    validate_report(report)
    assert report["results"]["member"] is False
    assert len(report["results"]["witness"]) == 3


def test_gen_gadgets_from_sidecar(tmp_path):
    rs = tmp_path / "rs.el"
    run(["gen", "rs", "--k", 3, "--out", rs])
    gadget = tmp_path / "gadget.el"
    assert run(["gen", "c5-gadget", "--from", rs, "--out", gadget]) == 0
    g = read_graph(gadget)
    assert g.n == 5 * 18
    side = json.loads((tmp_path / "gadget.el.json").read_text())
    assert side["packing"]["kind"] == "inducedC5"

    poset = tmp_path / "poset.el"
    assert run(["gen", "poset-gadget", "--from", rs, "--out", poset]) == 0
    d = read_digraph(poset)
    assert d.n == 18
    rec = tmp_path / "rec.json"
    assert run(["recognize", "--property", "poset", "--in", poset, "--out", rec]) == 0
    assert json.loads(rec.read_text())["results"]["member"] is False


def test_gen_reproducible(tmp_path):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    run(["--seed", 11, "gen", "gnp", "--n", 20, "--p", "0.4", "--out", a])
    run(["--seed", 11, "gen", "gnp", "--n", 20, "--p", "0.4", "--out", b])
    assert a.read_text() == b.read_text()
    c = tmp_path / "c.el"
    run(["--seed", 12, "gen", "gnp", "--n", 20, "--p", "0.4", "--out", c])
    assert a.read_text() != c.read_text()


def test_test_and_curve(tmp_path):
    g = tmp_path / "g.el"
    run(["--seed", 2, "gen", "gnp", "--n", 18, "--p", "0.5", "--out", g])
    rep = tmp_path / "rep.json"
    assert run(["--seed", 5, "test", "--in", g, "--tester", "triple", "--t", 5,
                "--trials", 300, "--out", rep]) == 0
    data = json.loads(rep.read_text())
    validate_report(data)
    r = data["results"]["report"]
    assert r["trials"] == 300 and r["queries_per_trial"] == 15

    csv_out = tmp_path / "curve.csv"
    assert run(["--seed", 5, "--format", "csv", "curve", "--in", g,
                "--tester", "quadruple", "--budgets", "1,2,4",
                "--trials", 200, "--out", csv_out]) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0].startswith("budget,")
    assert len(lines) == 4


def test_universal_needs_property(tmp_path):
    g = tmp_path / "g.el"
    run(["gen", "gnp", "--n", 8, "--p", "0.5", "--out", g])
    assert run(["test", "--in", g, "--tester", "universal", "--d", "4",
                "--trials", 10]) == 2


def test_decompose_and_distance(tmp_path):
    g = tmp_path / "g.el"
    run(["--seed", 4, "gen", "cograph", "--n", 9, "--out", g])
    rep = tmp_path / "dec.json"
    modified = tmp_path / "mod.el"
    assert run(["decompose", "--in", g, "--beta", "0", "--out", rep,
                "--out-graph", modified]) == 0
    data = json.loads(rep.read_text())
    assert data["results"]["edited_pairs"] == 0
    assert all(len(p) == 1 for p in data["results"]["parts"])
    assert read_graph(modified) == read_graph(g)

    dist = tmp_path / "dist.json"
    assert run(["distance", "--in", g, "--property", "cograph", "--out", dist]) == 0
    assert json.loads(dist.read_text())["results"]["distance"] == 0


def test_search_extremal_cli(tmp_path):
    rep = tmp_path / "ext.json"
    gout = tmp_path / "ext.el"
    assert run(["--seed", 1, "search-extremal", "--n", 5, "--beta", "1/5",
                "--effort", 40, "--out", rep, "--out-graph", gout]) == 0
    data = json.loads(rep.read_text())
    validate_report(data)
    assert data["results"]["record"]["p3_density"] == pytest.approx(0.0016)
    assert read_graph(gout).n == 5


@pytest.mark.parametrize("family", [["--beta", "1/5"], ["--epsilon", "1/32"]])
def test_search_extremal_effort_below_one_is_usage_error(tmp_path, capsys, family):
    assert run(["search-extremal", "--n", 8, *family, "--effort", -2,
                "--out", tmp_path / "ext.json"]) == 2
    assert "effort must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "ext.json").exists()


def test_exit_codes(tmp_path):
    assert run(["recognize", "--property", "cograph", "--in",
                tmp_path / "missing.el"]) == 3
    bad = tmp_path / "bad.el"
    bad.write_text("2 1\n0 0\n")
    assert run(["recognize", "--property", "cograph", "--in", bad]) == 3
    undecodable = tmp_path / "undecodable"
    undecodable.write_bytes(b"3 1\n0 1\n\xff\n")
    assert run(["recognize", "--property", "cograph", "--in", undecodable]) == 3
    rs, _, _ = _rs_with_sidecar(tmp_path)
    assert run(["gen", "c5-gadget", "--from", rs, "--parts-json", undecodable,
                "--out", tmp_path / "g.el"]) == 3
    assert run(["gen", "gnp", "--p", "0.5", "--out", tmp_path / "x.el"]) == 2
    with pytest.raises(SystemExit) as err:
        run(["bogus-command"])
    assert err.value.code == 2


def test_absurd_vertex_count_is_io_error(tmp_path, capsys):
    huge = tmp_path / "huge.el"
    huge.write_text("10000000000000 0\n")
    assert run(["recognize", "--property", "cograph", "--in", huge]) == 3
    assert "exceeds the limit" in capsys.readouterr().err
    tiny = tmp_path / "tiny.el"
    tiny.write_text("5 0\n")
    assert run(["recognize", "--property", "induced-h-free", "--h", "cycle:7",
                "--in", tiny]) == 2
    assert "limited to" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(threads):
    with pytest.raises(SystemExit) as err:
        run(["--threads", threads, "verify-suite", "gadgets"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["verify-suite", "gadgets", "--threads", threads])
    assert err.value.code == 2


def _rs_with_sidecar(tmp_path):
    rs = tmp_path / "rs.el"
    assert run(["gen", "rs", "--k", 3, "--out", rs]) == 0
    side = tmp_path / "rs.el.json"
    return rs, side, json.loads(side.read_text())


@pytest.mark.parametrize("breakage", ["no host_n", "short tuple"])
def test_malformed_sidecar_packing_is_io_error(tmp_path, capsys, breakage):
    rs, side, data = _rs_with_sidecar(tmp_path)
    if breakage == "no host_n":
        del data["packing"]["host_n"]
    else:
        data["packing"]["tuples"][0] = [0, 1]
    side.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["gen", "c5-gadget", "--from", rs, "--out", tmp_path / "g.el"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ptlab:") and "malformed packing" in err


@pytest.mark.parametrize("breakage, message", [
    ("parts a list", "no 'parts' object"),
    ("sidecar a list", "no 'parts' object"),
    ("two parts", "need 3 parts"),
    ("part not a list", "malformed parts"),
    ("not JSON", "not JSON"),
])
def test_malformed_sidecar_parts_is_io_error(tmp_path, capsys, breakage, message):
    rs, side, data = _rs_with_sidecar(tmp_path)
    if breakage == "parts a list":
        data["parts"] = [1, 2, 3]
    elif breakage == "sidecar a list":
        data = [data]
    elif breakage == "two parts":
        del data["parts"]["Z"]
    elif breakage == "part not a list":
        data["parts"]["X"] = 5
    side.write_text("{" if breakage == "not JSON" else json.dumps(data))
    capsys.readouterr()
    assert run(["gen", "c5-gadget", "--from", rs, "--out", tmp_path / "g.el"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ptlab:") and message in err


def test_sidecar_non_triangle_is_invariant_failure(tmp_path, capsys):
    rs, side, data = _rs_with_sidecar(tmp_path)
    # three vertices of one part are independent, so never a triangle
    data["packing"]["tuples"][0] = data["parts"]["X"][:3]
    side.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["gen", "c5-gadget", "--from", rs, "--out", tmp_path / "g.el"]) == 1
    assert "not a triangle" in capsys.readouterr().err


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PTLAB_SEED", "21")
    a = tmp_path / "a.el"
    run(["gen", "gnp", "--n", 12, "--p", "0.5", "--out", a])
    b = tmp_path / "b.el"
    run(["--seed", 21, "gen", "gnp", "--n", 12, "--p", "0.5", "--out", b])
    assert a.read_text() == b.read_text()


def test_global_flags_after_subcommand(tmp_path):
    a = tmp_path / "a.el"
    assert run(["gen", "gnp", "--n", 6, "--p", "1.0", "--seed", 3, "--out", a]) == 0
    assert read_graph(a).m == 15


def test_pipeline_hardness_cli(tmp_path):
    out = tmp_path / "hardness.csv"
    assert run(["--seed", 9, "--format", "csv", "pipeline-hardness",
                "--k", "3", "--d", 10, "--trials", 50, "--retries", 4,
                "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("k,graph,property,farness")
    assert len(lines) == 5  # header + 2 gadget rows + 2 control rows


def test_pipeline_easy_cli(tmp_path):
    out = tmp_path / "easy.json"
    assert run(["--seed", 9, "pipeline-easy", "--n", 9, "--distances", "1",
                "--budgets", "1,4", "--trials", 60, "--out", out]) == 0
    data = json.loads(out.read_text())
    validate_report(data)
    assert len(data["results"]["rows"]) == 4


def test_verify_suite_cli(capsys):
    assert run(["verify-suite", "gadgets"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_verify_suite_writes_to_out(tmp_path, capsys):
    out = tmp_path / "suite.txt"
    assert run(["verify-suite", "gadgets", "--out", out]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("command, args", [
    ("search-extremal", ["--n", 8, "--beta", "1/5", "--effort", 30]),
    ("gen", ["gnp", "--n", 5, "--p", "0.5"]),
    ("verify-suite", ["gadgets"]),
])
def test_csv_refused_before_the_command_runs(tmp_path, capsys, monkeypatch, command, args):
    monkeypatch.setitem(cli.COMMANDS, command, lambda a: pytest.fail(f"{command} ran"))
    out = tmp_path / "out"
    assert run(["--format", "csv", command, *args, "--out", out]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ptlab:") and command in captured.err


def test_csv_refused_without_table(tmp_path, capsys):
    g = tmp_path / "g.el"
    run(["gen", "gnp", "--n", 8, "--p", "0.5", "--out", g])
    capsys.readouterr()
    assert run(["--format", "csv", "recognize", "--property", "cograph",
                "--in", g]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ptlab:") and "recognize" in captured.err


def test_every_report_is_timed(tmp_path):
    g = tmp_path / "g.el"
    run(["--seed", 2, "gen", "gnp", "--n", 8, "--p", "0.5", "--out", g])
    commands = {
        "recognize": ["--property", "cograph", "--in", g],
        "test": ["--in", g, "--tester", "triple", "--t", 2, "--trials", 20],
        "curve": ["--in", g, "--tester", "triple", "--budgets", "1,2", "--trials", 20],
        "decompose": ["--in", g, "--beta", "1/10"],
        "distance": ["--in", g, "--property", "cograph"],
        "search-extremal": ["--n", 5, "--beta", "1/5", "--effort", 2],
        "pipeline-hardness": ["--k", "3", "--d", 8, "--trials", 10, "--retries", 1],
        "pipeline-easy": ["--n", 8, "--distances", "1", "--budgets", "1",
                          "--trials", 10],
    }
    for command, args in commands.items():
        out = tmp_path / f"{command}.json"
        assert run([command, *args, "--out", out]) == 0, command
        report = json.loads(out.read_text())
        validate_report(report)
        assert report["command"] == report["spec"]["name"] == command
        seconds = report["timings"]["seconds"]
        assert isinstance(seconds, float) and seconds >= 0, command


CSV_PINNED = {
    "test": (["--seed", 5, "test", "--in", "{g}", "--tester", "triple", "--t", 5,
              "--trials", 300],
             "kind,d,t,trials,rejections,rate,wilson_lo,wilson_hi,queries_per_trial\r\n"
             "triple-density,,5,300,127,0.42333333333333334,0.3687385228107271,"
             "0.47986673277703656,15\r\n"),
    "curve": (["--seed", 5, "curve", "--in", "{g}", "--tester", "quadruple",
               "--budgets", "1,2,4", "--trials", 200],
              "budget,trials,rejections,rate,wilson_lo,wilson_hi,queries_per_trial\r\n"
              "1,200,37,0.185,0.13730192800616042,0.2445706276115175,6\r\n"
              "2,200,78,0.39,0.3250834313746962,0.4590625404283025,12\r\n"
              "4,200,97,0.485,0.41667385171877513,0.5538915080725428,24\r\n"),
    "pipeline-hardness": (
        ["--seed", 9, "pipeline-hardness", "--k", "3", "--d", 10, "--trials", 50,
         "--retries", 4],
        "k,graph,property,farness,d,trials,rejection_rate,wilson_lo,wilson_hi\r\n"
        "3,gadget,induced-c5-free,0.0001234567901234568,10,50,0.0,0.0,"
        "0.07134759913335872\r\n"
        "3,gadget,comparability-order,0.0001234567901234568,10,50,0.0,0.0,"
        "0.07134759913335872\r\n"
        "3,control,induced-c5-free,0.0001234567901234568,10,50,0.68,"
        "0.5418970269185592,0.7924178373934316\r\n"
        "3,control,comparability,0.0001234567901234568,10,50,0.92,"
        "0.8116175308165717,0.968450485911407\r\n"),
}


@pytest.mark.parametrize("command", sorted(CSV_PINNED))
def test_csv_bytes_pinned(tmp_path, command):
    g = tmp_path / "g.el"
    run(["--seed", 2, "gen", "gnp", "--n", 18, "--p", "0.5", "--out", g])
    args, expected = CSV_PINNED[command]
    out = tmp_path / "out.csv"
    assert run(["--format", "csv", *[str(a).format(g=g) for a in args],
                "--out", out]) == 0
    assert out.read_bytes() == expected.encode()
