import importlib
import pkgutil
import types

import epilex

# The package's public names, modules left out: which submodules appear as
# attributes depends on import order.  A change to the surface changes this.
PUBLIC_NAMES = [
    "Alphabet", "AlphabetError", "Classification", "ConcatStream", "DirectiveStream", "DirectiveWord",
    "ExtremalResult", "FinenessVerdict", "InternalConsistencyError", "LengthError", "LexOrder",
    "LiteralPeriodicStream", "MorphicImageStream", "NotFine", "NotSkewForm", "NothingToDecompose",
    "PureEpistandardMorphism", "SkewSpec", "SpecError", "StrictnessReport", "Witness", "Word", "WordStream",
    "all_orders", "builder_word", "classify", "complexity", "construct_skew", "decompose_nonstrict",
    "exact_horizon", "factors", "identity", "is_fine_empirical", "max_factor", "max_stream", "min_factor",
    "min_stream", "palindromic_closure", "palindromic_prefixes", "prefix_morphism", "psi", "reconstruct_skew",
    "shift_chain", "standard_word", "strictness", "verify_min_transfer",
]


def test_public_surface_is_pinned():
    names = sorted(
        name
        for name, value in vars(epilex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_every_module_all_entry_resolves():
    # Tools that wrap the public functions walk ``__all__`` with getattr, so
    # a name left behind by a deletion must fail here, not there.
    for info in pkgutil.iter_modules(epilex.__path__):
        module = importlib.import_module(f"epilex.{info.name}")
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), info.name
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_every_exported_stream_kind_states_its_bound():
    # Each stream kind the package exports states an exact bound, and defines
    # its own ``_extend`` and ``exact_horizon``, which tools that wrap a kind
    # through ``cls.__dict__`` rely on.  A kind missing from this table fails.
    from epilex.textio import parse_directive

    abc = epilex.Alphabet.of("a", "b", "c")
    fib = epilex.standard_word(parse_directive(abc, "(ab)"))
    literal = epilex.LiteralPeriodicStream(abc.word("c"), abc.word("ab"))
    factories = {
        epilex.DirectiveStream: lambda: [fib, epilex.standard_word(parse_directive(abc, "ca(b)"))],
        epilex.LiteralPeriodicStream: lambda: [literal, epilex.LiteralPeriodicStream(abc.word(""), abc.word("a"))],
        epilex.ConcatStream: lambda: [epilex.ConcatStream(abc.word("c"), fib)],
        epilex.MorphicImageStream: lambda: [epilex.psi(abc, "c").apply(fib), epilex.psi(abc, "c").apply(literal)],
    }
    kinds = {
        value
        for value in vars(epilex).values()
        if isinstance(value, type) and issubclass(value, epilex.WordStream) and value is not epilex.WordStream
    }
    assert kinds <= factories.keys(), kinds - factories.keys()
    for kind in kinds:
        assert "_extend" in kind.__dict__ and "exact_horizon" in kind.__dict__, kind
        for stream in factories[kind]():
            assert type(stream) is kind
            for k in range(1, 21):
                bound = stream.exact_horizon(k)
                assert type(bound) is int and bound >= k, (kind, k, bound)
