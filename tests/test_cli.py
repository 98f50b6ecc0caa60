import json
from dataclasses import replace
from pathlib import Path

import pytest

from modalfib import cli
from modalfib.classify import FactorError, _classify_pi0, classify
from modalfib.cli import AnalysisRequest, Report, UsageError, main, run
from modalfib.covers import CoverError
from modalfib.fingroupoids import FinGroupoidError
from modalfib.graphs import GraphError
from modalfib.quotients import ActionError, SizeError
from modalfib.textio import parse_document
from modalfib.verdicts import Flag, MapClassification

C6C3 = """\
graph: hexagon
vertices: 0 1 2 3 4 5
edges: e0 0 1
edges: e1 1 2
edges: e2 2 3
edges: e3 3 4
edges: e4 4 5
edges: e5 5 0
basepoint: 0

graph: triangle
vertices: 0 1 2
edges: f0 0 1
edges: f1 1 2
edges: f2 2 0
basepoint: 0

map: wrap hexagon triangle
v 0 -> 0
v 1 -> 1
v 2 -> 2
v 3 -> 0
v 4 -> 1
v 5 -> 2
e e0 -> f0 +
e e1 -> f1 +
e e2 -> f2 +
e e3 -> f0 +
e e4 -> f1 +
e e5 -> f2 +
"""

CIRCLE = """\
graph: circle
vertices: 0
edges: l 0 0
basepoint: 0
"""

FIGURE2 = """\
graph: wedge
vertices: w
edges: a w w
edges: b w w
basepoint: w

monodromy: five wedge
degree: 5
perm: a (1 2)
perm: b (3 5 4)
"""

ROT = """\
graph: hexagon
vertices: 0 1 2 3 4 5
edges: e0 0 1
edges: e1 1 2
edges: e2 2 3
edges: e3 3 4
edges: e4 4 5
edges: e5 5 0
basepoint: 0

action: halfturn hexagon
group-gen: 1 0
vertex-perm: 0 -> 3
vertex-perm: 1 -> 4
vertex-perm: 2 -> 5
vertex-perm: 3 -> 0
vertex-perm: 4 -> 1
vertex-perm: 5 -> 2
edge-perm: e0 -> e3 +
edge-perm: e1 -> e4 +
edge-perm: e2 -> e5 +
edge-perm: e3 -> e0 +
edge-perm: e4 -> e1 +
edge-perm: e5 -> e2 +
"""

# the reflection of a 4-cycle that fixes vertices 0 and 2: not free
SQUARE_FLIP = """\
graph: square
vertices: 0 1 2 3
edges: e0 0 1
edges: e1 1 2
edges: e2 2 3
edges: e3 3 0

action: flip square
group-gen: 1 0
vertex-perm: 0 -> 0
vertex-perm: 1 -> 3
vertex-perm: 2 -> 2
vertex-perm: 3 -> 1
edge-perm: e0 -> e3 -
edge-perm: e1 -> e2 -
edge-perm: e2 -> e1 -
edge-perm: e3 -> e0 -
"""

PATH_REFLECTION = Path(__file__).parent / "golden" / "path_reflection.txt"


@pytest.fixture
def docs(tmp_path):
    out = {}
    for name, text in (("c6c3", C6C3), ("circle", CIRCLE),
                       ("figure2", FIGURE2), ("rot", ROT)):
        p = tmp_path / (name + ".txt")
        p.write_text(text)
        out[name] = str(p)
    return out


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# documented command examples

def test_classify_double_cover_rows(docs, capsys):
    code, data = run_json(capsys, ["classify", docs["c6c3"]])
    assert code == 0
    assert data["levels"]["pi1"]["etale"] == "true"
    assert data["levels"]["pi1"]["fibration"] == "true"
    assert data["levels"]["pi1"]["connected"] == "false"
    assert all(v for v in data["coherence"].values())


def test_enumerate_three_sheet_covers_of_circle(docs, capsys):
    code, data = run_json(capsys, ["covers", "enumerate", docs["circle"],
                                   "--n", "3"])
    assert code == 0
    assert data["count"] == 6
    assert len(data["covers"]) == 6
    rendered = sorted(c["l"] for c in data["covers"])
    assert rendered == ["", "(1 2 3)", "(1 2)", "(1 3 2)", "(1 3)", "(2 3)"]


def test_figure2_total_space_has_two_components(docs, capsys, tmp_path):
    dot = str(tmp_path / "total.dot")
    code, data = run_json(capsys, ["covers", "total", docs["figure2"],
                                   "--dot", dot])
    assert code == 0
    assert data["components"] == 2
    assert data["orbits"] == 2
    body = open(dot).read()
    assert body.startswith('graph "total"')
    assert body.count(" -- ") == 10


def test_universal_ball_over_circle_is_a_path(docs, capsys):
    code, data = run_json(capsys, ["covers", "universal-ball",
                                   docs["circle"], "--radius", "3"])
    assert code == 0
    assert data["vertices"] == 7
    assert data["edges"] == 6
    assert data["components"] == 1


def test_monodromy_of_double_cover(docs, capsys):
    code, data = run_json(capsys, ["covers", "monodromy", docs["c6c3"]])
    assert code == 0
    assert len(data["fiber"]) == 2
    assert len(data["orbits"]) == 1


def test_verify_shape_certifies_cover(docs, capsys):
    code, data = run_json(capsys, ["covers", "verify-shape", docs["c6c3"]])
    assert code == 0
    assert data["ok"] is True
    cert = data["certificates"][0]
    assert cert["index"] == 2
    assert cert["image_rank"] == 1
    assert cert["equal"] is True


def test_quotient_shape_reports_free_rank(docs, capsys):
    code, data = run_json(capsys, ["quotient", "shape", docs["rot"]])
    assert code == 0
    assert data["kind"] == "presented"
    assert list(data["ranks"].values()) == [1]


def test_quotient_verify_passes(docs, capsys):
    code, data = run_json(capsys, ["quotient", "verify", docs["rot"]])
    assert code == 0
    assert data["fibration"] is True
    assert all(r["exact"] for r in data["rows"])


def test_quotient_shape_of_a_forest_writes_its_groupoid(tmp_path, capsys):
    dot = tmp_path / "q.dot"
    code, data = run_json(capsys, ["quotient", "shape", str(PATH_REFLECTION),
                                   "--dot", str(dot)])
    assert code == 0
    assert data["kind"] == "groupoid"
    body = dot.read_text()
    assert body.startswith('digraph "quotient"')
    # one object and one arrow; the identities are not drawn
    assert body.count("[label=") == 2 and body.count(" -> ") == 1


def test_quotient_shape_of_a_non_free_action_on_a_cycle(tmp_path, capsys):
    p = tmp_path / "flip.txt"
    p.write_text(SQUARE_FLIP)
    dot = tmp_path / "orbit.dot"
    code, data = run_json(capsys, ["quotient", "shape", str(p),
                                   "--dot", str(dot)])
    assert code == 0
    assert data["kind"] == "presented"
    assert data["ranks"] == {"0": "unavailable (action not free)"}
    assert data["dot"] == "unavailable (action not free)"
    assert not dot.exists()


def test_factor0_recomposes_and_writes_dot(docs, capsys, tmp_path):
    dot = str(tmp_path / "mid.dot")
    code, data = run_json(capsys, ["factor0", docs["c6c3"], "--dot", dot])
    assert code == 0
    assert data["recomposes"] is True
    assert data["left"]["connected"] == "true"
    assert data["right"]["modal"] == "true"
    assert open(dot).read().startswith('graph "middle"')


def test_criteria_routes_agree(docs, capsys):
    code, data = run_json(capsys, ["criteria", docs["c6c3"]])
    assert code == 0
    assert data["constant_fiber"] is True
    assert data["etale_family"] is True
    assert all(data["consistency"].values())


def test_prism_over_basepoint(docs, capsys):
    code, data = run_json(capsys, ["prism", docs["c6c3"]])
    assert code == 0
    assert data["fiber_vertices"] == 2
    assert data["symbolic_cosets"] == 2
    assert data["triangle_commutes"] is True
    assert data["gamma_equivalence"] is True


@pytest.mark.parametrize("token, integer", [("+7", 7), ("1_0", 10)])
def test_prism_vertex_is_a_document_token(token, integer, tmp_path, capsys):
    # --vertex reads its value as the text format reads an id, so a token
    # that int() would take for an integer names its own vertex
    p = tmp_path / "two.txt"
    p.write_text("graph: s\nvertices: a\n\ngraph: t\nvertices: %s %d\n\n"
                 "map: f s t\nv a -> %s\n" % (token, integer, token))
    code, data = run_json(capsys, ["prism", str(p), "--vertex", token])
    assert code == 0
    assert data["vertex"] == token and data["fiber_vertices"] == 1
    code, data = run_json(capsys, ["prism", str(p), "--vertex", str(integer)])
    assert code == 0
    assert data["vertex"] == integer and data["fiber_vertices"] == 0
    # no id holds whitespace
    assert main(["prism", str(p), "--vertex", " %d" % integer]) == 65
    assert "input error: vertex ' %d'" % integer in capsys.readouterr().err


def test_suite_commands_pass_on_small_samples(capsys):
    for sub in ("nine-way", "closure", "compare-modalities"):
        code, data = run_json(capsys, ["suite", sub, "--samples", "20"])
        assert code == 0
        assert data["ok"] is True


# ---------------------------------------------------------------------------
# determinism and report plumbing

def test_machine_reports_are_byte_identical(docs, capsys):
    outs = []
    for _ in range(2):
        assert main(["classify", docs["c6c3"], "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "elapsed" not in json.loads(outs[0])


def test_seeded_suite_reports_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code = main(["suite", "nine-way", "--samples", "10",
                     "--seed", "7", "--format", "json"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]



@pytest.mark.parametrize("command, text, key", [
    ("covers universal-ball", CIRCLE, "radius"),
    ("quotient verify", ROT, "max_group"),
], ids=["covers-universal-ball", "quotient-verify"])
def test_left_out_options_default_once(command, text, key, tmp_path,
                                       monkeypatch, capsys):
    # the handler's default is the only one: the CLI without the flag
    # passes no value for it, and prints what a request without the key
    # reports
    seen = []

    def recording_run(request):
        seen.append(request.options)
        return run(request)

    monkeypatch.setattr(cli, "run", recording_run)
    doc = tmp_path / "doc.txt"
    doc.write_text(text)
    assert main(command.split() + [str(doc), "--format", "json"]) == 0
    assert key not in seen[0]
    report = run(AnalysisRequest(command=command,
                                 documents=(parse_document(text),)))
    assert capsys.readouterr().out == report.machine() + "\n"

def test_report_machine_format_round_trips():
    rep = Report(command="x", data={"a": [1, 2], "b": {"c": None}},
                 status=0, lines=["a"], elapsed=1.0)
    assert json.loads(rep.machine()) == rep.data


def test_request_rejects_unknown_option_keys():
    with pytest.raises(UsageError):
        AnalysisRequest(command="classify", options={"bogus": 1})
    with pytest.raises(UsageError):
        AnalysisRequest(command="classify", options={"samples": "many"})
    with pytest.raises(UsageError):
        AnalysisRequest(command="prism", options={"vertex": 7})
    with pytest.raises(UsageError):
        run(AnalysisRequest(command="no-such-command"))


# ---------------------------------------------------------------------------
# the parser and the request check read the same command rows

def _parser_accepts(parser, command, key, value):
    argv = command.split() + (["DOC"] if cli._reads_document(command) else [])
    try:
        parser.parse_args(argv + ["--" + key.replace("_", "-"), str(value)])
    except UsageError:
        return False
    return True


def _api_accepts(command, key, value):
    try:
        AnalysisRequest(command, (), {key: value})
    except UsageError:
        return False
    return True


def _values(kind):
    """A value of each option kind, and for a least value the one below."""
    if kind is str:
        return ["x"]
    return [0] if kind is None else [kind, kind - 1]


def test_parser_and_request_accept_the_same_options():
    # every option of every row, tried on every command; no document is
    # read
    kinds = {("format", "json"), ("format", "xml")}
    for _, _, options in cli._COMMANDS.values():
        kinds |= {(key, v) for key, kind in options.items()
                  for v in _values(kind)}
    parser = cli._build_parser()
    differ = [(command, key, value)
              for command in cli._COMMANDS for key, value in sorted(kinds)
              if _parser_accepts(parser, command, key, value)
              != _api_accepts(command, key, value)]
    assert differ == []


@pytest.mark.parametrize("command, key, value", [
    ("covers enumerate", "n", 0),
    ("covers universal-ball", "radius", -1),
    ("suite closure", "samples", 0),
    ("suite closure", "samples", "many"),
    ("quotient verify", "max_group", 0),
    ("classify", "format", "xml"),
    ("classify", "radius", 3),
])
def test_bad_values_and_foreign_options_are_rejected_both_ways(command, key,
                                                               value):
    assert not _parser_accepts(cli._build_parser(), command, key, value)
    assert not _api_accepts(command, key, value)


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_64(docs, capsys):
    assert main(["no-such-command"]) == 64
    assert main(["covers", "enumerate", docs["circle"]]) == 64
    assert main(["classify", docs["c6c3"], "--bogus"]) == 64
    assert main(["classify", "/nonexistent/file.txt"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_enumerate_without_n_exits_64_whatever_the_document_holds(
        tmp_path, capsys):
    # two graphs: the base is ambiguous, but the missing --n comes first
    p = tmp_path / "two.txt"
    p.write_text(CIRCLE + "\ngraph: other\nvertices: 0\n")
    assert main(["covers", "enumerate", str(p)]) == 64
    assert "--n" in capsys.readouterr().err
    with pytest.raises(UsageError):
        run(AnalysisRequest("covers enumerate",
                            (parse_document(p.read_text()),)))


def test_parse_errors_exit_65(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("graph: g\nvertices: 0\nedges: e 0 7\n")
    assert main(["classify", str(p)]) == 65
    assert "line" in capsys.readouterr().err


def test_repeated_row_exits_65_naming_its_line(tmp_path, capsys):
    p = tmp_path / "twice.txt"
    p.write_text("graph: g\nvertices: 0\nedges: l 0 0\nbasepoint: 0\n\n"
                 "monodromy: m g\ndegree: 2\nperm: l (1 2)\nperm: l\n")
    assert main(["covers", "total", str(p)]) == 65
    assert "line 9:" in capsys.readouterr().err


def test_repeated_map_row_exits_65_naming_its_line(tmp_path, capsys):
    p = tmp_path / "twice.txt"
    p.write_text("graph: a\nvertices: 0 1\nedges: l 0 1\n\n"
                 "graph: b\nvertices: 0\nedges: k 0 0\n\n"
                 "map: f a b\nv 0 -> 0\nv 1 -> 0\ne l -> deg\nv 1 -> 0\n")
    assert main(["classify", str(p)]) == 65
    assert "line 13:" in capsys.readouterr().err


def test_wrong_section_kind_exits_65(docs, capsys):
    assert main(["classify", docs["circle"]]) == 65
    assert "map" in capsys.readouterr().err


def test_size_bound_exits_2_and_names_the_flag(docs, capsys):
    assert main(["quotient", "verify", docs["rot"],
                 "--max-group", "1"]) == 2
    err = capsys.readouterr().err
    assert "--max-group" in err
    assert "bound" in err


def test_size_bound_exits_2_for_s6_before_any_product_table(tmp_path,
                                                             capsys):
    # S_6 acting on six points: 720 elements, past the default bound 24
    rows = ["graph: points", "vertices: 0 1 2 3 4 5", "basepoint: 0", "",
            "action: s6 points"]
    for gen in ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)):
        rows.append("group-gen: " + " ".join(map(str, gen)))
        rows += ["vertex-perm: %d -> %d" % (i, j) for i, j in enumerate(gen)]
    p = tmp_path / "s6.txt"
    p.write_text("\n".join(rows) + "\n")
    assert main(["quotient", "shape", str(p)]) == 2
    assert capsys.readouterr().err == (
        "size bound: group order 720 exceeds the bound 24 "
        "(raise with --max-group)\n")


def test_ids_that_read_undecided_leave_the_exit_status_alone(tmp_path,
                                                             capsys):
    # the status comes from the verdict records, not from report strings
    p = tmp_path / "ids.txt"
    p.write_text(CIRCLE + "\nmonodromy: two circle\nfiber: undecided x\n"
                 "perm: l (undecided x)\n")
    code, data = run_json(capsys, ["covers", "monodromy", str(p)])
    assert code == 0
    assert data["fiber"] == ["undecided", "x"]


def test_an_undecided_flag_exits_2(docs, monkeypatch, capsys):
    cut = Flag("undecided", bound=7)

    def partial_classify(f):
        c = classify(f)
        return MapClassification(
            pi0=c.pi0, pi1=replace(c.pi1, fibration=cut))

    monkeypatch.setattr(cli, "classify", partial_classify)
    code, data = run_json(capsys, ["classify", docs["c6c3"]])
    assert code == 2
    assert data["levels"]["pi1"]["fibration"] == "undecided(bound=7)"
    assert main(["criteria", docs["c6c3"]]) == 2
    monkeypatch.setattr(cli, "_classify_pi0",
                        lambda f: replace(_classify_pi0(f), modal=cut))
    assert main(["factor0", docs["c6c3"]]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "classify" in capsys.readouterr().out


def test_unwritable_dot_path_is_a_usage_error(docs, tmp_path, capsys):
    for path in (str(tmp_path / "no" / "such" / "dir.dot"), str(tmp_path)):
        assert main(["factor0", docs["c6c3"], "--dot", path]) == 64
        assert "cannot write %s" % path in capsys.readouterr().err


@pytest.mark.parametrize("raw, line", [
    (b"graph: G\xff\nvertices: 0\n", 1),
    (b"graph: G\nvertices: 0\n\n# caf\xe9\n", 4),
])
def test_non_utf8_document_exits_65_naming_its_line(raw, line, tmp_path,
                                                     capsys):
    p = tmp_path / "bad.txt"
    p.write_bytes(raw)
    assert main(["classify", str(p)]) == 65
    err = capsys.readouterr().err
    assert "parse error: line %d:" % line in err
    assert "UTF-8" in err


def test_cover_errors_exit_65(tmp_path, capsys):
    p = tmp_path / "two_points.txt"
    p.write_text("graph: g\nvertices: 0 1\nbasepoint: 0\n")
    assert main(["covers", "enumerate", str(p), "--n", "2"]) == 65
    assert "input error: base not connected" in capsys.readouterr().err
    p = tmp_path / "fold.txt"
    p.write_text("graph: a\nvertices: 0\nedges: x 0 0\nedges: y 0 0\n"
                 "basepoint: 0\n\n"
                 "graph: b\nvertices: 0\nedges: l 0 0\nbasepoint: 0\n\n"
                 "map: f a b\nv 0 -> 0\ne x -> l +\ne y -> l +\n")
    assert main(["covers", "monodromy", str(p)]) == 65
    assert "input error: not a covering" in capsys.readouterr().err


# a loop with no basepoint, the same loop pointed beside a second one,
# and the identity map of the unpointed loop
UNPOINTED = "graph: g\nvertices: 0\nedges: l 0 0\n"
TWO_LOOPS = ("graph: g\nvertices: 0 1\nedges: l 0 0\nedges: m 1 1\n"
             "basepoint: 0\n")
UNPOINTED_MAP = UNPOINTED + "\nmap: f g g\nv 0 -> 0\ne l -> l +\n"


@pytest.mark.parametrize("argv, text, message", [
    ("prism DOC", UNPOINTED_MAP, "target has no basepoint; pass --vertex"),
    ("covers monodromy DOC", UNPOINTED_MAP, "cover target needs a basepoint"),
    ("covers total DOC", UNPOINTED_MAP, "cover target needs a basepoint"),
    ("covers universal-ball DOC", UNPOINTED, "base needs a basepoint"),
    ("covers universal-ball DOC", TWO_LOOPS, "base not connected"),
    ("covers enumerate DOC --n 2", UNPOINTED, "base not pointed"),
], ids=["prism", "monodromy", "total", "ball-unpointed", "ball-disconnected",
        "enumerate-unpointed"])
def test_missing_basepoints_and_disconnected_bases_exit_65(argv, text,
                                                           message, tmp_path,
                                                           capsys):
    p = tmp_path / "doc.txt"
    p.write_text(text)
    assert main([str(p) if a == "DOC" else a for a in argv.split()]) == 65
    assert capsys.readouterr().err == "input error: %s\n" % message


def test_library_requests_name_what_they_lack():
    with pytest.raises(UsageError, match="command 'classify' needs an "
                                         "input document"):
        run(AnalysisRequest(command="classify"))
    with pytest.raises(UsageError, match="option 'samples' wants an integer"):
        AnalysisRequest(command="suite closure", options={"samples": "many"})


def test_a_failed_factorization_is_reported_and_exits_1(docs, monkeypatch,
                                                         capsys):
    def fail(f):
        raise FactorError("no middle")
    monkeypatch.setattr(cli, "factor0", fail)
    code, data = run_json(capsys, ["factor0", docs["c6c3"]])
    assert code == 1
    assert data == {"command": "factor0", "ok": False, "reason": "no middle"}
    assert main(["factor0", docs["c6c3"]]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "factorization failed: no middle"


@pytest.mark.parametrize("error, code, prefix", [
    (cli.InputError("x"), 65, "input error"),
    (GraphError("x"), 65, "input error"),
    (CoverError("x"), 65, "input error"),
    (ActionError("x"), 65, "input error"),
    (SizeError("x"), 2, "size bound"),
    (FinGroupoidError("x"), 65, "input error"),
])
def test_library_errors_reach_their_exit_codes(error, code, prefix, docs,
                                               monkeypatch, capsys):
    def fail(f):
        raise error
    monkeypatch.setattr(cli, "classify", fail)
    assert main(["classify", docs["c6c3"]]) == code
    assert capsys.readouterr().err.startswith(prefix + ": x")
