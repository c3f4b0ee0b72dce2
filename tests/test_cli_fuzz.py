"""Arbitrary small quiver, presheaf and representation files on the
command line: every run of each of the five subcommands ends in exit 0, 1
or 2, never in an internal error (exit 3) or an exception out of main.

Inputs are drawn well formed (acyclic quiver, dims 0-2, maps of the right
shape with small rational entries; the representation file holds the
presheaf's maps transposed) and then, about half of the time, one part of
them is replaced by a wrong value, so that both the decisions and the
input checks are reached."""

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
    st.sampled_from(["", "x", "a", "1/0", "1.5", "+1", " 1", "0/1", "-0", "3\n", "\u0663"]),
    st.just([]),
    st.just({}),
    st.just([[]]),
)
TOPOLOGIES = ["coarse", "discrete", "discrete+empty", "edge", "graded:0", "graded:1", "graded:2"]


@st.composite
def well_formed(draw):
    """An acyclic quiver (edges go forward in vertex order, parallel edges
    allowed), a presheaf on it and the representation with the same maps
    transposed, as JSON values."""
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
    transposed = {
        e["id"]: [[row[j] for row in maps[e["id"]]] for j in range(dims[e["dst"]])] for e in edges
    }
    quiver = {"vertices": list(vertices), "edges": edges}
    presheaf = {"kind": "presheaf", "dims": dims, "maps": maps}
    return quiver, presheaf, {"kind": "representation", "dims": dict(dims), "maps": transposed}


def corrupt(draw, quiver, presheaf, representation):
    """Replace one part of the inputs by a wrong value, or nothing; a wrong
    part of the presheaf goes to the same place in the representation."""
    where = draw(st.sampled_from(["nothing"] * 8 + [
        "quiver", "vertex", "duplicate vertex", "edge", "edge key", "cycle",
        "presheaf", "kind", "dims", "dim", "maps", "map", "entry",
    ]))
    edges = quiver["edges"]
    functors = [presheaf, representation]
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
        functors = [draw(JUNK)] * 2
    elif where == "kind":
        # either each file names the other's kind, or both name a junk one
        if draw(st.booleans()):
            presheaf["kind"], representation["kind"] = "representation", "presheaf"
        else:
            presheaf["kind"] = representation["kind"] = draw(JUNK)
    elif where in ("dims", "maps"):
        value = draw(JUNK)
        for f in functors:
            f[where] = value
    elif where == "dim":
        v, value = draw(st.sampled_from(sorted(presheaf["dims"]))), draw(JUNK)
        for f in functors:
            f["dims"][v] = value
    elif where == "map" and presheaf["maps"]:
        e, value = draw(st.sampled_from(sorted(presheaf["maps"]))), draw(JUNK)
        for f in functors:
            f["maps"][e] = value
    elif where == "entry":
        # the first entry of a nonempty map is the first of its transpose
        value = draw(JUNK)
        for e, rows in presheaf["maps"].items():
            if rows and rows[0]:
                rows[0][0] = representation["maps"][e][0][0] = value
                break
    return quiver, *functors


@st.composite
def cli_inputs(draw):
    quiver, presheaf, representation = corrupt(draw, *draw(well_formed()))
    topology = draw(st.sampled_from(TOPOLOGIES * 3 + ["graded:-1", "graded:x", "fine"]))
    limit = draw(st.sampled_from(["14"] * 6 + ["-1", "0", "3"]))
    fmt = draw(st.sampled_from(["text", "json"]))
    return quiver, presheaf, representation, topology, limit, fmt


def run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())
    return rc


@settings(max_examples=200, deadline=None)
@given(cli_inputs())
def test_every_command_never_fails_internally(tmp_path_factory, inputs):
    quiver, presheaf, representation, topology, limit, fmt = inputs
    root = tmp_path_factory.getbasetemp()
    q, f, v = (str(root / name) for name in ("fuzz_quiver.json", "fuzz_presheaf.json", "fuzz_rep.json"))
    for path, value in ((q, quiver), (f, presheaf), (v, representation)):
        with open(path, "w") as fh:
            json.dump(value, fh)
    decide = ["--quiver", q, "--topology", topology, "--sieve-limit", limit, "--format", fmt]
    for argv in (
        ["audit", *decide],
        ["check-sheaf", "--presheaf", f, *decide],
        ["validate", "--quiver", q, "--format", fmt],
        ["functors", "--quiver", q, "--presheaf", f, "--presheaf", f, "--format", fmt],
        ["dualize", "--quiver", q, "--representation", v],
    ):
        assert run(argv) in (0, 1, 2)
