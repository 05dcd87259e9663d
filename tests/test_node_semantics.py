"""Node classes share one `__eq__`, `__hash__` and `__repr__` (`core.node`).
They must behave exactly as the ones `dataclasses` generates: each class is
checked against a twin declared with `dataclass(eq=True, unsafe_hash=True)`
over the same fields, on the nodes that compiling and running the corpus
builds."""

import dataclasses
import itertools

from conftest import CORPUS
from effc import exeff, infer, lex, noeff, pipeline, skeleff, source
from effc.core import NODES, Context, SkelArrow, SkelBase, SkelForall, SkelVar, Span, TArrow, TyVar


def _twin(cls: type) -> type:
    spec = [
        (f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory, repr=f.repr, compare=f.compare))
        for f in dataclasses.fields(cls)
    ]
    twin = dataclasses.make_dataclass(cls.__name__, spec, eq=True, unsafe_hash=True)
    twin.__qualname__ = cls.__qualname__
    return twin


TWINS = {cls: _twin(cls) for cls in NODES}


def as_twin(x):
    """`x` rebuilt, all the way down, from the twins of its node classes.  A
    frozenset (of operation names) is kept as it is: a rebuilt one may list
    its items in another order."""
    cls = type(x)
    if cls in TWINS:
        return TWINS[cls](**{f.name: as_twin(getattr(x, f.name)) for f in dataclasses.fields(cls)})
    if cls in (tuple, list):
        return cls(map(as_twin, x))
    return x


def nodes_of(*roots) -> list:
    """Every node reachable from `roots`, each object once, in walk order."""
    out, seen, todo = [], set(), list(roots)
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, list, frozenset)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
        elif type(x) in TWINS and id(x) not in seen:
            seen.add(id(x))
            out.append(x)
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return out


def corpus_nodes() -> list:
    """The nodes of every corpus program: its tokens, source, signature,
    residual constraints, the three compiled terms with the types `derive`
    gives the ExEff one, and the first steps of each backend's trace."""
    roots = []
    for path in sorted(CORPUS.glob("*.eff")):
        text = path.read_text()
        sig, comp = source.parse_program(text)
        outcome = infer.infer_top(sig, comp)
        art = pipeline.compile_text(text)
        derived = exeff.derive(Context(sig), art.exeff_term)
        roots += [lex.tokenize(text), sig.ops, comp, outcome.residual, outcome.generated, art.cty, derived]
        for reduction, term in (
            (exeff.REDUCTION, art.exeff_term),
            (skeleff.REDUCTION, art.skeleff_term),
            (noeff.REDUCTION, art.noeff_term),
        ):
            roots += reduction.run(term, keep_trace=True)[2][:4]
    return nodes_of(*roots)


def transient_nodes(seen: list) -> list:
    """One node of each class that only lives inside a solve, a check or a
    NoEff bridge the corpus does not need, built from nodes in `seen`."""
    some = {type(x): x for x in seen}
    return [
        infer.SkelEq(some[SkelArrow], some[SkelBase]),
        SkelForall(some[SkelVar], some[SkelArrow]),
        noeff.NForall(some[TyVar], some[TArrow]),
        noeff.NCoFunToHand(some[noeff.NCoTyRefl], some[noeff.NCoComp]),
    ]


NODES_SEEN = corpus_nodes()
NODES_SEEN += nodes_of(*transient_nodes(NODES_SEEN))


def test_every_node_class_is_sampled():
    assert {type(x) for x in NODES_SEEN} == set(NODES)


def test_hash_and_repr_match_the_generated_ones():
    for x in NODES_SEEN:
        t = as_twin(x)
        assert hash(x) == hash(t), x
        assert repr(x) == repr(t)


def test_equality_matches_the_generated_one():
    by_class: dict = {}
    for x in NODES_SEEN:
        by_class.setdefault(type(x), []).append(x)
    equal = unequal = 0
    for cls, xs in by_class.items():
        for x in xs:
            copy = dataclasses.replace(x)
            assert copy is not x and copy == x and not copy != x
        # Each node against the next few of its class: equal and unequal pairs.
        for x, y in itertools.chain.from_iterable(zip(xs, xs[k:]) for k in (1, 2, 3)):
            same = x == y
            assert same == (as_twin(x) == as_twin(y)), (x, y)
            assert (x != y) is not same
            equal += same
            unequal += not same
    assert equal > 100 and unequal > 100


def test_the_docstring_is_the_generated_one():
    for cls, twin in TWINS.items():
        assert cls.__doc__ == twin.__doc__


def test_a_span_is_not_compared():
    spanned = [x for x in NODES_SEEN if any(f.name == "span" and not f.compare for f in dataclasses.fields(x))]
    assert len({type(x) for x in spanned}) == 12
    for x in spanned:
        moved = dataclasses.replace(x, span=Span(10**6, 1))
        assert moved == x and hash(moved) == hash(x)
        assert repr(moved) != repr(x)


def test_two_classes_with_equal_fields_are_never_equal():
    by_fields: dict = {}
    for cls in NODES:
        by_fields.setdefault(tuple(f.name for f in dataclasses.fields(cls)), []).append(cls)
    sample = {type(x): x for x in NODES_SEEN}
    pairs = 0
    for classes in by_fields.values():
        for a, b in itertools.permutations(classes, 2):
            x = sample[a]
            y = b(**{f.name: getattr(x, f.name) for f in dataclasses.fields(a)})
            assert x.__eq__(y) is NotImplemented
            assert x != y and not x == y
            assert (as_twin(x) == as_twin(y)) is False
            pairs += 1
    assert pairs > 20
