import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import connected_graphs

import apx
import apx.cli
from apx.cli import _write_canonical, main
from apx.graphcore import Graph


def write_graph(tmp_path, name, edges, as_json=False):
    path = tmp_path / name
    if as_json:
        path.write_text(json.dumps({"edges": [list(e) for e in edges]}))
    else:
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


C4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def test_facets_c3(tmp_path, capsys):
    path = write_graph(tmp_path, "c3.txt", [(0, 1), (1, 2), (0, 2)])
    assert main(["facets", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["facet_count"] == 6


def test_facets_single_edge(tmp_path, capsys):
    path = write_graph(tmp_path, "edge.txt", [(0, 1)])
    assert main(["facets", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["facet_count"] == 2
    assert payload["facets"][0]["normal"] == ["-1"]


def test_facets_path3(tmp_path, capsys):
    path = write_graph(tmp_path, "p3.txt", [(0, 1), (1, 2)])
    assert main(["facets", path]) == 0
    assert json.loads(capsys.readouterr().out)["facet_count"] == 4


def test_subdivide_c4(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.json", C4, as_json=True)
    assert main(["subdivide", path, "--edge", "0,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cell_count"] == 6
    assert payload["total_nvol"] == "12"
    for cell in payload["cells"]:
        assert set(cell) == {"points", "gamma", "corank", "nvol", "facet_image"}
        assert cell["corank"] == 0
        assert cell["nvol"] == "2"
        assert [0, 3] in cell["points"] and [3, 0] in cell["points"]
        assert "normal" in cell["facet_image"]


def test_subdivide_c5(tmp_path, capsys):
    path = write_graph(tmp_path, "c5.txt", C5)
    assert main(["subdivide", path, "--edge", "0,4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cell_count"] == 6
    assert payload["total_nvol"] == "30"


def test_subdivide_dot_export(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.txt", C4)
    dot_dir = tmp_path / "dots"
    assert main(["subdivide", path, "--edge", "0,3", "--dot", str(dot_dir)]) == 0
    capsys.readouterr()
    files = sorted(p.name for p in dot_dir.iterdir())
    assert "graph.dot" in files
    assert sum(name.startswith("cell_") for name in files) == 6
    text = (dot_dir / "cell_0.dot").read_text()
    assert "digraph" in text and "->" in text


def _refused_by_both(tmp_path, capsys, monkeypatch, change, check) -> tuple[str, dict]:
    """Run ``subdivide`` and ``verify --level fast`` on C5 (edge 0,4) with
    the cell construction changed by ``change(pairs)``.  ``subdivide``
    must exit 1 with one line, and ``verify`` must exit 1 with that line's
    words as the detail of its failed ``check``; returns them and
    ``verify``'s checks.  ``subdivide`` imports the construction when it
    runs and ``verify`` when its module loads, so the patch goes on both
    modules."""
    import apx.subdivision as subdivision
    import apx.verify as verify

    real = subdivision.cells_with_facets
    for module in (subdivision, verify):
        monkeypatch.setattr(module, "cells_with_facets", lambda g, e: change(real(g, e)))
    path = write_graph(tmp_path, "c5.txt", C5)
    assert main(["subdivide", path, "--edge", "0,4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    prefix = "verification failure: "
    assert err.startswith(prefix) and err.count("\n") == 1
    message = err[len(prefix) : -1]
    report = tmp_path / "report.json"
    assert main(["verify", path, "--edge", "0,4", "--level", "fast", "--json", str(report)]) == 1
    checks = json.loads(report.read_text())["checks"]
    assert checks[check] == {"passed": False, "detail": message}
    return message, checks


def test_subdivide_proof_refuses_a_missing_cell(tmp_path, capsys, monkeypatch):
    # Every cell left is a full-dimensional lower face; only the volume
    # cover sees that one is gone.
    message, _ = _refused_by_both(
        tmp_path, capsys, monkeypatch, lambda pairs: pairs[1:], "volume_additivity"
    )
    assert message == "cells cover volume 25 of the polytope's 30"


def _lifted(cell, label) -> int:
    """The lifted value of a C5 label against a cell's normal, the lift
    weight 0 on the contracted pair (0, 4) and 1 elsewhere."""
    gamma = (0, *cell.gamma)
    i, j = label
    return gamma[i] - gamma[j] + (label not in ((0, 4), (4, 0)))


def test_subdivide_proof_refuses_a_shifted_normal(tmp_path, capsys, monkeypatch):
    # The same points with one normal shifted by 1: still full-dimensional
    # and of the same volume, but no longer a lower face of the lift.  The
    # witness is a point of the cell off level 0, at its real value.
    changed = []

    def shift(pairs):
        (cell, facet), *rest = pairs
        gamma = (cell.gamma[0] + 1, *cell.gamma[1:])
        changed.append(cell._replace(gamma=gamma))
        return [(changed[-1], facet), *rest]

    message, checks = _refused_by_both(
        tmp_path, capsys, monkeypatch, shift, "lower_facet_normalization"
    )
    assert message == (
        "cell 0 is not a lower face of the lift at h = 0: point (1, 0) of the cell lifts to 1"
    )
    assert (1, 0) in changed[-1].points and _lifted(changed[-1], (1, 0)) == 1
    assert checks["volume_additivity"]["passed"]


def test_subdivide_proof_refuses_a_repeated_cell(tmp_path, capsys, monkeypatch):
    # On C5 every cell has volume 5, so a cell taken twice in place of
    # another keeps the sum; the repeated normal gives it away.
    message, checks = _refused_by_both(
        tmp_path,
        capsys,
        monkeypatch,
        lambda pairs: [pairs[0], *pairs[:-1]],
        "lower_facet_normalization",
    )
    assert message == "cells 0 and 1 share a normal"
    assert checks["volume_additivity"]["passed"]


def test_verify_fails_a_cell_that_is_not_full_dimensional(tmp_path, capsys, monkeypatch):
    # Cell 0 without two of its points other than the pair spans only
    # dimension 3 in R^4, and the points dropped still lie on its lifted
    # hyperplane, so it is not a face.  Both commands name the first
    # statement it fails; verify also fails the cover, naming the cell,
    # and still writes its report.  The witness is a dropped point, at
    # level 0 outside the cell.
    changed = []

    def thin(pairs):
        (cell, facet), *rest = pairs
        dropped = [p for p in cell.points if p not in ((0, 4), (4, 0))][:2]
        points = tuple(p for p in cell.points if p not in dropped)
        changed.append((cell._replace(points=points), dropped))
        return [(changed[-1][0], facet), *rest]

    message, checks = _refused_by_both(
        tmp_path, capsys, monkeypatch, thin, "lower_facet_normalization"
    )
    assert message == (
        "cell 0 is not a lower face of the lift at h = 0: point (1, 0) outside the cell lifts to 0"
    )
    cell, dropped = changed[-1]
    assert (1, 0) in dropped and _lifted(cell, (1, 0)) == 0
    assert checks["volume_additivity"] == {
        "passed": False,
        "detail": "cell 0 is not full-dimensional: affine dimension 3 < 4",
    }
    assert checks["cell_invariants"] == {
        "passed": False,
        "detail": "cell 0: TheoremViolation: not full-dimensional: affine dimension 3 < 4",
    }


def test_subdivide_and_verify_refuse_a_pair_only_segment(tmp_path, capsys, monkeypatch):
    # The contracted pair alone at gamma = 0 is a lower face of the lift
    # with a normal of its own, but of dimension 1: only the cover's
    # full-dimension statement refuses it.
    def segment(pairs):
        (cell, facet), *rest = pairs
        return [(cell._replace(points=((0, 4), (4, 0)), gamma=(0, 0, 0, 0)), facet), *rest]

    message, checks = _refused_by_both(
        tmp_path, capsys, monkeypatch, segment, "volume_additivity"
    )
    assert message == "cell 0 is not full-dimensional: affine dimension 1 < 4"
    assert checks["lower_facet_normalization"]["passed"]
    assert checks["cell_invariants"] == {
        "passed": False,
        "detail": "cell 0: TheoremViolation: not full-dimensional: affine dimension 1 < 4",
    }


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_byte_order_mark_gives_the_same_report(tmp_path, capsys, as_json):
    plain = Path(write_graph(tmp_path, "c5.json" if as_json else "c5.txt", C5, as_json))
    marked = tmp_path / f"marked{plain.suffix}"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main(["subdivide", str(plain), "--edge", "0,4"]) == 0
    expected = capsys.readouterr()
    assert main(["subdivide", str(marked), "--edge", "0,4"]) == 0
    assert capsys.readouterr() == expected


def test_volume_checks_its_edge_under_either_method(tmp_path, capsys):
    # volume takes no edge and has one method: an edge, under either the
    # kept or the removed method, is refused as a usage error.
    path = write_graph(tmp_path, "p3.txt", [(0, 1), (1, 2)])
    for args in (
        ["--method", "triangulation", "--edge", "1,2"],
        ["--method", "subdivision"],
        ["--method", "subdivision", "--edge", "1,2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["volume", path, *args])
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(["volume", path]) == 0
    expected = capsys.readouterr()
    assert main(["volume", path, "--method", "triangulation"]) == 0
    assert capsys.readouterr() == expected


def test_volume_methods_agree(tmp_path, capsys):
    # The volume of the cells is subdivide's total_nvol, which its proof
    # checks against volume's triangulation.
    path = write_graph(tmp_path, "c5.txt", C5)
    assert main(["volume", path]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert main(["subdivide", path, "--edge", "0,4"]) == 0
    via_cells = json.loads(capsys.readouterr().out)
    assert direct["normalized_volume"] == via_cells["total_nvol"] == "30"


def test_verify_c4(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.txt", C4)
    assert main(["verify", path, "--edge", "0,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["checks"]["facet_correspondence"]["passed"] is True


def test_verify_fast_level_skips_exponential_checks(tmp_path, capsys):
    path = write_graph(tmp_path, "c5.txt", C5)
    assert main(["verify", path, "--edge", "0,4", "--level", "fast"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "matroid_morphism" not in payload["checks"]
    assert "max_corank_equals_balanced_circuit_rank" not in payload["checks"]


def test_json_output_is_deterministic(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.txt", C4)
    assert main(["subdivide", path, "--edge", "0,3"]) == 0
    first = capsys.readouterr().out
    assert main(["subdivide", path, "--edge", "0,3"]) == 0
    assert capsys.readouterr().out == first


def test_json_file_output(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.txt", C4)
    out = tmp_path / "facets.json"
    assert main(["facets", path, "--json", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["facet_count"] == 6


@pytest.mark.parametrize(
    "args",
    [
        ["facets"],
        ["subdivide", "--edge", "0,4"],
        ["volume"],
        ["verify", "--edge", "0,4", "--level", "fast"],
        ["verify", "--edge", "0,4", "--level", "full"],
    ],
    ids=["facets", "subdivide", "volume", "verify-fast", "verify-full"],
)
def test_reports_are_the_bytes_of_json_dump(tmp_path, capsys, monkeypatch, args):
    payloads = []
    emit = apx.cli.emit

    def recording_emit(payload, json_path):
        payloads.append(payload)
        emit(payload, json_path)

    monkeypatch.setattr(apx.cli, "emit", recording_emit)
    path = write_graph(tmp_path, "c5.txt", C5)
    out = tmp_path / "report.json"
    assert main([args[0], path, *args[1:]]) == 0
    stdout = capsys.readouterr().out
    assert main([args[0], path, *args[1:], "--json", str(out)]) == 0
    assert capsys.readouterr().out == ""
    first, second = payloads
    expected = json.dumps(first, indent=2, sort_keys=True) + "\n"
    assert stdout == expected
    assert out.read_bytes() == expected.encode()
    assert json.dumps(second, indent=2, sort_keys=True) + "\n" == expected


# Escapes, control characters and non-ASCII text, including a character
# outside the basic plane, which json writes as a surrogate pair.
_chars = st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
_text = st.text(_chars, max_size=6)
_leaves = st.none() | st.booleans() | st.integers(-(10**30), 10**30) | _text
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(payload=st.dictionaries(_text, _values, max_size=5))
@example(payload={})
@example(payload={"z": [], "y": {}, "x": [[], {}], "w": [{"b": None, "a": True}, False, -7]})
@example(payload={"\u00e9\n\"": ["\\", "\U0001f600", "\x00"], "\t": -(2**70)})
def test_writer_matches_json_dump_on_drawn_payloads(payload):
    fh = io.StringIO()
    _write_canonical(payload, fh)
    assert fh.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "payload",
    [
        # True == 1 and hash(True) == hash(1): a tuple holding a bool must
        # not share memoised text with the int tuple, whichever comes first.
        {"a": [[(1, 1), (True, 1), (1, True), (1, 1)]], "b": [[(False, 0), (0, 0)]]},
        # Tuples holding a list or a dict cannot be hashed, so are not leaves.
        {"a": [[(1, [2, 3]), (1, [2, 3]), ({"k": (1,)}, 2)]]},
        # The same tuple at two depths is indented differently.
        {"a": [[(0, 1), [(0, 1), [(0, 1)]]], [(0, 1)]], "b": (0, 1)},
    ],
    ids=["bool-next-to-int", "tuple-holding-a-list", "two-depths"],
)
def test_memoised_leaf_tuples_write_the_bytes_of_json_dump(payload):
    fh = io.StringIO()
    _write_canonical(payload, fh)
    assert fh.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_closed_stdout_pipe_exits_two_without_a_traceback(tmp_path):
    # W10's facet report is about 1 MB, far more than a pipe holds, so the
    # child is still writing when the reader goes.
    wheel = [(0, i) for i in range(1, 10)] + [(i, i % 9 + 1) for i in range(1, 10)]
    graph = write_graph(tmp_path, "w10.txt", wheel)
    src = str(Path(apx.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; from apx.cli import main; sys.exit(main())",
         "facets", graph],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert child.stdout.read(4096).startswith(b"{")
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 2
    finally:
        child.kill()
        child.wait()
    assert "Traceback" not in err
    assert err.startswith("error: cannot write the report: ")
    assert len(err.splitlines()) == 1


def test_missing_file_is_input_error(capsys):
    assert main(["facets", "/nonexistent/graph.txt"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["facets", "--json"],
        ["subdivide", "--edge", "0,3", "--json"],
        ["subdivide", "--edge", "0,3", "--dot"],
        ["verify", "--edge", "0,3", "--level", "fast", "--json"],
    ],
)
def test_unwritable_output_is_input_error(tmp_path, capsys, args):
    path = write_graph(tmp_path, "c4.txt", C4)
    # A path below a regular file cannot be created, whoever runs the test.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = str(blocker / "out")
    assert main([args[0], path, *args[1:], target]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


def test_failed_verification_exits_one(tmp_path, capsys, monkeypatch):
    # Every theorem holds on real inputs, so force a failing report to pin
    # down the exit-code mapping.  ``cmd_verify`` imports run_verification
    # when it runs, so the patch goes on its home module.
    import apx.verify

    class FailingReport:
        def passed(self):
            return False

        def to_json_dict(self):
            return {"passed": False}

    monkeypatch.setattr(apx.verify, "run_verification", lambda *a, **k: FailingReport())
    path = write_graph(tmp_path, "c4.txt", C4)
    assert main(["verify", path, "--edge", "0,3"]) == 1


def test_bad_edge_is_input_error(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.txt", C4)
    assert main(["subdivide", path, "--edge", "0,2"]) == 2
    assert main(["subdivide", path, "--edge", "0"]) == 2
    assert main(["subdivide", path, "--edge", "0,9"]) == 2
    assert "out of range for 4 nodes" in capsys.readouterr().err
    assert main(["subdivide", path, "--edge", "0,0"]) == 2
    assert capsys.readouterr().err == "error: edge '0,0' is a loop at node 0\n"


@pytest.mark.parametrize(
    "text", ["0,1_1", "0,+1", "0,١"], ids=["underscore", "plus-sign", "arabic-indic-digit"]
)
def test_edge_label_that_is_not_a_plain_decimal_is_input_error(tmp_path, capsys, text):
    # int() reads the first as the edge {0, 11} of C12 and the other two
    # as {0, 1}; --edge reads its labels as a graph file does.
    path = write_graph(tmp_path, "c12.txt", [(i, (i + 1) % 12) for i in range(12)])
    assert main(["verify", path, "--edge", text, "--level", "fast"]) == 2
    assert capsys.readouterr().err == f"error: --edge expects 'K1,K2', got {text!r}\n"


def test_subdivide_and_verify_name_a_descending_edge_alike(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.txt", C4)
    for args in (["subdivide"], ["verify", "--level", "fast"]):
        assert main([args[0], path, "--edge", "3,0", *args[1:]]) == 0
        assert json.loads(capsys.readouterr().out)["edge"] == [0, 3]


def test_file_that_is_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe0 1\n")
    assert main(["facets", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: not UTF-8 text (byte 0)\n"


def test_disconnected_graph_is_input_error(tmp_path, capsys):
    path = write_graph(tmp_path, "bad.txt", [(0, 1), (2, 3)])
    assert main(["facets", path]) == 2


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n")
    assert main(["facets", str(path)]) == 2


@pytest.mark.parametrize("label", ["true", "1.7", '"1"'])
def test_json_label_that_is_not_an_integer_is_input_error(tmp_path, capsys, label):
    path = tmp_path / "bad.json"
    path.write_text('{"edges": [[0, %s], [1, 2]]}' % label)
    assert main(["facets", str(path)]) == 2


@pytest.mark.parametrize(
    "text",
    [
        # Too deep for the decoder's recursion.
        '{"edges": ' + "[" * 100_000 + "]" * 100_000 + "}",
        # More digits than Python converts to an int.
        '{"edges": [[0, %s]]}' % ("7" * 5000),
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_hostile_json_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    assert main(["facets", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: ")
    assert len(err.splitlines()) == 1


def test_long_text_label_names_the_digit_limit(tmp_path, capsys):
    # The text reader's twin of the long-integer JSON case above.
    path = tmp_path / "hostile.txt"
    path.write_text("0 %s\n" % ("7" * 5000))
    assert main(["facets", str(path)]) == 2
    err = capsys.readouterr().err
    limit = sys.get_int_max_str_digits()
    assert err.startswith(f"error: line 1: Exceeds the limit ({limit} digits)")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "line, reason",
    [
        # int() reads each of the first three, as 10, 1 and 1.
        ("0 1_0", "non-integer label"),
        ("0 +1", "non-integer label"),
        ("0 ١", "non-integer label"),
        ("0 -1", "negative node label"),
    ],
    ids=["underscore", "plus-sign", "arabic-indic-digit", "negative"],
)
def test_text_label_that_is_not_a_plain_decimal_is_input_error(tmp_path, capsys, line, reason):
    path = tmp_path / "bad.txt"
    path.write_text(line + "\n", encoding="utf-8")
    assert main(["facets", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line 1: {reason}\n"


def test_huge_label_is_input_error(tmp_path, capsys):
    # Rejected as disconnected before one entry per label is allocated.
    path = write_graph(tmp_path, "huge.txt", [(0, 1), (1, 10**12)])
    assert main(["facets", path]) == 2
    assert main(["volume", path]) == 2
    assert main(["verify", path, "--edge", "0,1", "--level", "fast"]) == 2


def test_cli_import_defers_the_analysis_layers():
    script = textwrap.dedent(
        """
        import json, sys
        heavy = ("dataclasses", "inspect", "fractions", "decimal")
        import apx.cli
        loaded = sorted(m for m in sys.modules if m.startswith("apx."))
        heavy_after_cli = [m for m in heavy if m in sys.modules]
        import apx.verify
        heavy_after_verify = [m for m in heavy if m in sys.modules]
        namespace = {}
        exec("from apx import *", namespace)
        star = sorted(name for name in namespace if not name.startswith("__"))
        print(json.dumps({"loaded": loaded, "star": star, "heavy": heavy_after_cli,
                          "heavy_verify": heavy_after_verify}))
        """
    )
    src = str(Path(apx.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    result = json.loads(out.stdout)
    assert "apx.polytope" in result["loaded"]
    lazy = {"apx.verify", "apx.matroid", "apx.cellanalysis", "apx.subdivision"}
    assert lazy.isdisjoint(result["loaded"])
    # Every CLI child pays for what these imports load.
    assert result["heavy"] == result["heavy_verify"] == []
    assert result["star"] == sorted(apx.__all__)
    for name in apx.__all__:
        assert getattr(apx, name).__name__ == name
    with pytest.raises(AttributeError):
        apx.no_such_name


def test_readme_library_block_runs():
    # The README's Library block, run as written in a fresh interpreter.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    script = block + "print(len(pairs), len(cells), len(f1), len(f2))\n"
    src = str(Path(apx.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout == "6 12 2 6\n"


@pytest.mark.parametrize(
    "args, absent, present",
    [
        (["facets"], {"apx.subdivision", "apx.verify"}, set()),
        (["volume"], {"apx.subdivision", "apx.verify"}, set()),
        (["subdivide", "--edge", "0,4"], {"apx.cellanalysis", "apx.matroid"}, {"apx.subdivision"}),
        (["verify", "--edge", "0,4", "--level", "fast"], {"apx.matroid"}, {"apx.cellanalysis"}),
        (["verify", "--edge", "0,4", "--level", "full"], set(), {"apx.matroid"}),
    ],
    ids=["facets", "volume", "subdivide", "verify-fast", "verify-full"],
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, args, absent, present):
    # Each command runs in a child process, which reports the apx modules
    # loaded when it is done.
    script = textwrap.dedent(
        """
        import json, sys
        from apx.cli import main
        code = main(sys.argv[1:])
        loaded = sorted(m for m in sys.modules if m.startswith("apx."))
        print(json.dumps({"code": code, "loaded": loaded}), file=sys.stderr)
        """
    )
    graph = write_graph(tmp_path, "c5.txt", C5)
    argv = [args[0], graph, *args[1:], "--json", str(tmp_path / "report.json")]
    src = str(Path(apx.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, check=True
    )
    result = json.loads(out.stderr)
    assert result["code"] == 0
    assert absent.isdisjoint(result["loaded"]), result["loaded"]
    assert present <= set(result["loaded"])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(g=connected_graphs(), data=st.data())
def test_text_and_json_forms_round_trip(g, data):
    pairs = data.draw(st.permutations(g.sorted_edges()))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)]
    text = "".join(f"{u} {v}\n" for u, v in pairs)
    assert Graph.from_text(text) == g
    assert Graph.from_json(json.dumps({"edges": pairs})) == g
    assert Graph.from_json(json.dumps(g.to_json_dict())) == g


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(g=connected_graphs(max_nodes=5), data=st.data())
def test_cli_exit_codes_on_random_graphs(tmp_path_factory, g, data):
    tmp = tmp_path_factory.mktemp("exit")
    out = str(tmp / "out.json")
    edges = g.sorted_edges()
    assert main(["facets", write_graph(tmp, "g.txt", edges), "--json", out]) == 0
    assert main(["facets", write_graph(tmp, "g.json", edges, as_json=True), "--json", out]) == 0
    k1, k2 = data.draw(st.sampled_from(edges))
    assert main(["subdivide", write_graph(tmp, "g.txt", edges), "--edge", f"{k1},{k2}",
                 "--json", out]) == 0
    n = g.node_count
    apart = edges + [(n, n + 1)]
    assert main(["facets", write_graph(tmp, "apart.txt", apart), "--json", out]) == 2
    assert main(["facets", write_graph(tmp, "apart.json", apart, as_json=True)]) == 2
    v = data.draw(st.integers(0, n - 1))
    assert main(["facets", write_graph(tmp, "loop.txt", edges + [(v, v)])]) == 2
    assert main(["facets", write_graph(tmp, "loop.json", edges + [(v, v)], as_json=True)]) == 2


def test_tracer_leaves_the_verify_full_report_unchanged(tmp_path):
    # perfbench/tracer.py rebinds every public function of the apx modules,
    # matroid's among them, to a timing wrapper.  On verify --level full
    # it must exit 0 and write the bytes the untraced child writes.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    graph = write_graph(tmp_path, "c5.txt", C5)
    args = ["verify", graph, "--edge", "0,1", "--level", "full", "--json"]
    src = str(Path(apx.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    entry = "import sys; from apx.cli import main; sys.exit(main())"
    plain = subprocess.run(
        [sys.executable, "-c", entry, *args, str(tmp_path / "plain.json")],
        capture_output=True, text=True, env=env,
    )
    spans = tmp_path / "spans.jsonl"
    traced = subprocess.run(
        [sys.executable, str(tracer), str(spans), "0", "0", "--",
         *args, str(tmp_path / "traced.json")],
        capture_output=True, text=True, env=env,
    )
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    names = {json.loads(line)[3] for line in spans.read_text().splitlines()[:-1]}
    assert "verify.run_verification" in names
    assert any(name.startswith("matroid.") for name in names)
