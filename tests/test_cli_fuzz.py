"""Fuzzing of the command layer: random fibration and sweep documents through
cli.main.  Whatever the input, the command returns an exit code of the report
contract (0, 1, 2 or 3), and an input error exits 1 with an ``error: `` line
instead of a traceback.

Each document is drawn well formed and then, half of the time, has one node
replaced by a bad value or one key deleted, so that the checks see valid
input as often as every field sees a fault.  The documents stay small
(fibers of dimension <= 3 with <= 5 labels, at most two factors, at most
four sweep rows), so every example runs quickly.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import operator

from hypothesis import given, settings, strategies as st

from wkstab import cli, jsonio

NAMES = ("a", "b")


def rationals(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=7).map(
        jsonio.rational_to_json
    )


POSITIVE = rationals(1, 6)
BAD = st.sampled_from(
    ["x", "1/0", "1e3", "", "var", "$zz", True, None, 1.5, -1, 0, [1], {}, {"n": 1}]
)


def _simplex_labels(dim, t):
    return [{"gradient": [int(i == k) for i in range(dim)], "constant": t}
            for k in range(dim)] + [{"gradient": [-1] * dim, "constant": t}]


@st.composite
def fibers(draw, max_dim):
    """A standard simplex shorthand, or a label list: the simplex's labels
    plus random ones, or, a quarter of the time, random labels alone (often
    unbounded, with empty interior or redundant)."""
    dim = draw(st.integers(1, max_dim))
    t = draw(POSITIVE)
    if draw(st.booleans()):
        return {"standard_simplex": {"l": dim, "t": t}}
    labels = _simplex_labels(dim, t) if draw(st.booleans()) else []
    extra = st.fixed_dictionaries({
        "gradient": st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
        "constant": rationals(-3, 3),
    })
    labels += draw(st.lists(extra, min_size=not labels, max_size=5 - len(labels)))
    return {"dim": dim, "labels": labels}


@st.composite
def factors(draw, dim):
    if draw(st.booleans()):
        node = {"preset": draw(st.sampled_from(["P1", "P2", "P3", "Q3", "V22", "neg-KE3"]))}
        if node["preset"] == "neg-KE3" or draw(st.booleans()):
            node["c"] = draw(rationals(1, 12))
    else:
        node = {"n": draw(st.integers(1, 3)), "s": draw(rationals(-12, 48)),
                "c": draw(rationals(1, 12))}
    if draw(st.booleans()):
        node["p"] = draw(st.lists(rationals(-2, 2), min_size=dim, max_size=dim))
    return node


@st.composite
def fibrations(draw, max_dim=3, var=False):
    fiber = draw(fibers(max_dim))
    dim = fiber.get("dim") or fiber["standard_simplex"]["l"]
    doc = {"fiber": fiber, "factors": draw(st.lists(factors(dim), min_size=var, max_size=2))}
    if var:
        doc["factors"][0]["c"] = "var"
    return doc


def _paths(node, path=()):
    """Every node's path of keys and indices, the root's included."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def corrupted(draw, documents):
    """A document, half of the time with one node replaced by a bad value or
    one key deleted."""
    doc = json.loads(json.dumps(draw(documents)))
    paths = list(_paths(doc))[1:]
    if paths and draw(st.booleans()):
        *head, last = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, head, doc)
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = draw(BAD)
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


COMMANDS = [
    ["info"],
    ["lext"],
    ["futaki"],
    ["check", "--max-depth", "1"],
    ["check-fano", "--max-depth", "1"],
    ["check-fano-total"],
    ["probe", "--resolution", "1"],
    ["threshold", "--lo", "6", "--hi", "12", "--tol", "1/2"],
]


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(COMMANDS).flatmap(
        lambda command: st.tuples(
            st.just(command), corrupted(fibrations(var=command[0] == "threshold"))
        )
    ),
    legacy=st.booleans(),
)
def test_random_fibration_documents_exit_by_the_contract(case, legacy):
    command, doc = case
    argv = [command[0], json.dumps(doc), *command[1:]] + (["--legacy-sign"] if legacy else [])
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.startswith("error: ") and out == "", err
    else:
        assert err == ""


@st.composite
def sweeps(draw):
    template = draw(fibrations(max_dim=1))
    rational_leaves = [  # t, the label constants, s, c and the entries of p
        path for path in _paths(template)
        if path and (path[-1] in ("t", "constant", "s", "c") or path[-2:-1] == ("p",))
    ]
    leaves = draw(st.lists(st.sampled_from(rational_leaves), unique=True, max_size=2))
    used = NAMES[:len(leaves)]
    for name, (*head, last) in zip(used, leaves):
        functools.reduce(operator.getitem, head, template)[last] = f"${name}"
    doc = {"template": template}
    values = rationals(1, 12)
    if draw(st.booleans()):
        doc["rows"] = draw(st.lists(st.fixed_dictionaries({n: values for n in used}),
                                    max_size=3))
    else:
        doc["grid"] = {n: draw(st.lists(values, max_size=2)) for n in used}
    if draw(st.booleans()):
        doc["run"] = draw(st.sampled_from(["check", "check-fano", "check-fano-total"]))
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=corrupted(sweeps()))
def test_random_sweep_documents_exit_by_the_contract(doc):
    code, out, err = _run(["sweep", json.dumps(doc)])
    assert code in (0, 1, 2, 3)
    if code == 1 and err:
        assert err.startswith("error: ") and out == "", err
    elif code == 1:  # the rows ran, and one of them raised
        assert any(row["verdict"] == "Error" for row in json.loads(out)["rows"])
    else:
        assert err == ""


# the commands whose reports do not depend on the order of the fiber's
# labels; check is not one, since its Bernstein cells (and so its per-cone
# outcomes) follow the label order
PERMUTABLE = [
    ["lext"],
    ["futaki"],
    ["check-fano", "--max-depth", "1"],
    ["threshold", "--lo", "6", "--hi", "12", "--tol", "1/2"],
]


def _agrees_under_permutation(command, doc, order):
    """Run command on doc and on doc with its fiber's labels in the given
    order, assert the two agree, and return the first run's (code, out)."""
    code, out, err = _run([command[0], json.dumps(doc), *command[1:]])
    labels = [doc["fiber"]["labels"][i] for i in order]
    permuted = {**doc, "fiber": {**doc["fiber"], "labels": labels}}
    again = _run([command[0], json.dumps(permuted), *command[1:]])
    assert again[0] == code
    # an input error may name a label by its index, and check-fano's
    # fallback route runs check's per-cone route
    if not err.startswith("error: fibration.fiber.labels") and "general-fallback" not in out:
        assert again == (code, out, err), (command, doc, order)
    return code, out


def test_every_label_order_of_the_triangle_gives_the_same_reports():
    golden = ["threshold", "--lo", "4", "--hi", "9", "--tol", "1/100"]
    for command in [*PERMUTABLE[:3], golden]:
        c = "var" if command[0] == "threshold" else 9
        doc = {"fiber": {"dim": 2, "labels": _simplex_labels(2, 1)},
               "factors": [{"preset": "P3", "c": c, "p": [1, 2]}]}
        for order in itertools.permutations(range(3)):
            code, out = _agrees_under_permutation(command, doc, order)
            assert code == 0
    # the threshold report is the golden one of the command-line smoke runs
    assert hashlib.sha256(out.encode()).hexdigest().startswith("d1604944")


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from(PERMUTABLE).flatmap(
        lambda command: st.tuples(
            st.just(command), fibrations(max_dim=2, var=command[0] == "threshold")
        )
    ),
    data=st.data(),
    legacy=st.booleans(),
)
def test_label_order_does_not_change_the_reports(case, data, legacy):
    command, doc = case
    if "standard_simplex" in doc["fiber"]:  # written out as its label list
        body = doc["fiber"]["standard_simplex"]
        doc["fiber"] = {"dim": body["l"], "labels": _simplex_labels(body["l"], body["t"])}
    order = data.draw(st.permutations(range(len(doc["fiber"]["labels"]))))
    _agrees_under_permutation(command + (["--legacy-sign"] if legacy else []), doc, order)
