"""Arbitrary small quiver and presheaf files on the command line: every
run of check-sheaf and audit ends in exit 0, 1 or 2, never in an internal
error (exit 3) or an exception out of main.

Inputs are drawn well formed (acyclic quiver, dims 0-2, maps of the right
shape with small rational entries) and then, about half of the time, one
part of them is replaced by a wrong value, so that both the decisions and
the input checks are reached."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from quivsheaf.cli import main

NAMES = ["a", "b", "c", "d"]
RATIONALS = ["0", "1", "-1", "2", "1/2", "-3/4"]
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["", "x", "a", "1/0", "1.5", "+1", " 1", "0/1", "-0"]),
    st.just([]),
    st.just({}),
    st.just([[]]),
)
TOPOLOGIES = ["coarse", "discrete", "discrete+empty", "edge", "graded:0", "graded:1", "graded:2"]


@st.composite
def well_formed(draw):
    """An acyclic quiver (edges go forward in vertex order, parallel edges
    allowed) and a presheaf on it, as JSON values."""
    n = draw(st.integers(1, 4))
    vertices = NAMES[:n]
    pairs = [(vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    edges = [{"id": f"e{k}", "src": src, "dst": dst} for k, (src, dst) in enumerate(chosen)]
    dims = {v: draw(st.integers(0, 2)) for v in vertices}
    entry = st.sampled_from(RATIONALS)
    maps = {
        e["id"]: [[draw(entry) for _ in range(dims[e["dst"]])] for _ in range(dims[e["src"]])]
        for e in edges
    }
    quiver = {"vertices": list(vertices), "edges": edges}
    return quiver, {"kind": "presheaf", "dims": dims, "maps": maps}


def corrupt(draw, quiver, presheaf):
    """Replace one part of the inputs by a wrong value, or nothing."""
    where = draw(st.sampled_from(["nothing"] * 8 + [
        "quiver", "vertex", "duplicate vertex", "edge", "edge key", "cycle",
        "presheaf", "kind", "dims", "dim", "maps", "map", "entry",
    ]))
    edges, dims, maps = quiver["edges"], presheaf["dims"], presheaf["maps"]
    if where == "quiver":
        quiver = draw(JUNK)
    elif where == "vertex":
        quiver["vertices"][draw(st.integers(0, len(quiver["vertices"]) - 1))] = draw(JUNK)
    elif where == "duplicate vertex":
        quiver["vertices"].append(quiver["vertices"][0])
    elif where == "edge" and edges:
        edges[draw(st.integers(0, len(edges) - 1))][draw(st.sampled_from(["id", "src", "dst"]))] = draw(JUNK)
    elif where == "edge key" and edges:
        del edges[draw(st.integers(0, len(edges) - 1))][draw(st.sampled_from(["id", "src", "dst"]))]
    elif where == "cycle" and edges:
        e = edges[0]
        edges.append({"id": "back", "src": e["dst"], "dst": draw(st.sampled_from([e["src"], e["dst"]]))})
    elif where == "presheaf":
        presheaf = draw(JUNK)
    elif where == "kind":
        presheaf["kind"] = draw(st.one_of(st.just("representation"), JUNK))
    elif where in ("dims", "maps"):
        presheaf[where] = draw(JUNK)
    elif where == "dim":
        dims[draw(st.sampled_from(sorted(dims)))] = draw(JUNK)
    elif where == "map" and maps:
        maps[draw(st.sampled_from(sorted(maps)))] = draw(JUNK)
    elif where == "entry":
        for rows in maps.values():
            if rows and rows[0]:
                rows[0][0] = draw(JUNK)
                break
    return quiver, presheaf


@st.composite
def cli_inputs(draw):
    quiver, presheaf = draw(well_formed())
    quiver, presheaf = corrupt(draw, quiver, presheaf)
    topology = draw(st.sampled_from(TOPOLOGIES * 3 + ["graded:-1", "graded:x", "fine"]))
    limit = draw(st.sampled_from(["14"] * 6 + ["-1", "0", "3"]))
    fmt = draw(st.sampled_from(["text", "json"]))
    return quiver, presheaf, topology, limit, fmt


def run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())
    return rc


@settings(max_examples=200, deadline=None)
@given(cli_inputs())
def test_check_sheaf_and_audit_never_fail_internally(tmp_path_factory, inputs):
    quiver, presheaf, topology, limit, fmt = inputs
    root = tmp_path_factory.getbasetemp()
    q_path, p_path = root / "fuzz_quiver.json", root / "fuzz_presheaf.json"
    q_path.write_text(json.dumps(quiver))
    p_path.write_text(json.dumps(presheaf))
    common = ["--quiver", str(q_path), "--topology", topology, "--sieve-limit", limit, "--format", fmt]
    assert run(["audit"] + common) in (0, 1, 2)
    assert run(["check-sheaf", "--presheaf", str(p_path)] + common) in (0, 1, 2)
