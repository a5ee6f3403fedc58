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


# The public methods and properties of each exported class, its own and
# those it inherits from the package's classes; a class not listed has none.
# An added or deleted method changes this.
STREAM_METHODS = ["directive", "exact_horizon", "prefix", "raw"]
PUBLIC_METHODS = {
    "Alphabet": ["empty", "index", "of", "size", "word"],
    "ConcatStream": STREAM_METHODS,
    "DirectiveStream": ["directive", "exact_horizon", "palindromic_prefix_lengths", "prefix", "raw"],
    "DirectiveWord": ["alph", "exact_horizon", "letter", "parse", "shift", "ult"],
    "FinenessVerdict": ["fine_to_depth"],
    "LexOrder": ["default", "describe", "from_letters", "reversed"],
    "LiteralPeriodicStream": STREAM_METHODS,
    "MorphicImageStream": STREAM_METHODS,
    "PureEpistandardMorphism": ["apply", "compose", "generator_tokens", "is_identity"],
    "SkewSpec": ["alphabet", "exact_horizon", "seed_length", "seed_word", "suffix_word", "validate"],
    "StrictnessReport": ["strict"],
    "Word": ["exact_horizon", "is_palindrome", "prefix", "raw", "reversal"],
    "WordStream": STREAM_METHODS,
}


def test_public_surface_is_pinned():
    names = sorted(
        name
        for name, value in vars(epilex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_public_methods_are_pinned():
    def methods(cls):
        return sorted({
            name
            for klass in cls.__mro__
            if klass.__module__.startswith("epilex")
            for name, value in vars(klass).items()
            if not name.startswith("_") and isinstance(value, (types.FunctionType, property, classmethod, staticmethod))
        })

    found = {
        name: methods(value)
        for name, value in vars(epilex).items()
        if isinstance(value, type) and not name.startswith("_") and methods(value)
    }
    assert found == PUBLIC_METHODS


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
    # through ``cls.__dict__`` rely on, and its own ``_image`` under a
    # morphism.  A kind missing from this table fails.
    from epilex.textio import parse_directive

    abc = epilex.Alphabet.of("a", "b", "c")
    fib = epilex.standard_word(parse_directive(abc, "(ab)"))
    literal = epilex.LiteralPeriodicStream(abc.word("c"), abc.word("ab"))
    factories = {
        epilex.DirectiveStream: lambda: [fib, epilex.standard_word(parse_directive(abc, "ca(b)"))],
        epilex.LiteralPeriodicStream: lambda: [literal, epilex.LiteralPeriodicStream(abc.word(""), abc.word("a"))],
        epilex.ConcatStream: lambda: [epilex.ConcatStream(abc.word("c"), fib)],
        epilex.MorphicImageStream: lambda: [
            epilex.MorphicImageStream(epilex.psi(abc, "c"), fib),
            epilex.MorphicImageStream(epilex.psi(abc, "c"), literal),
        ],
    }
    kinds = {
        value
        for value in vars(epilex).values()
        if isinstance(value, type) and issubclass(value, epilex.WordStream) and value is not epilex.WordStream
    }
    assert kinds <= factories.keys(), kinds - factories.keys()
    for kind in kinds:
        assert all(name in kind.__dict__ for name in ("_extend", "exact_horizon", "_image")), kind
        for stream in factories[kind]():
            assert type(stream) is kind
            for k in range(1, 21):
                bound = stream.exact_horizon(k)
                assert type(bound) is int and bound >= k, (kind, k, bound)


def test_every_name_imported_in_src_is_used():
    # No linter runs on this package, so a bulk rewrite that leaves an import
    # behind fails here.  ``__init__.py`` imports to re-export.  An imported
    # name counts as used where the module, or a scope in it that does not
    # bind the name itself, reads it, or where an annotation, quoted or not,
    # names it: postponed annotations are no reads to the symbol table.
    import ast
    import symtable
    from pathlib import Path

    def reads(table):
        names = {
            sym.get_name()
            for sym in table.get_symbols()
            if sym.is_referenced() and (table.get_type() == "module" or sym.is_global())
        }
        return names.union(*map(reads, table.get_children()))

    for path in sorted(Path(epilex.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = reads(symtable.symtable(source, str(path), "exec"))
        for node in ast.walk(tree):
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                for part in ast.walk(annotation) if annotation is not None else ():
                    if isinstance(part, ast.Constant) and isinstance(part.value, str):
                        part = ast.parse(part.value, mode="eval")
                    used |= {n.id for n in ast.walk(part) if isinstance(n, ast.Name)}
        unused = {name: line for name, line in imported.items() if name not in used}
        assert not unused, (path.name, unused)


def test_src_reads_letters_through_one_chr_encoder():
    # Letters have one format from stream memo to result, the ``chr`` text:
    # a stream memoises it, the scans read it (``WordStream._text``) and a
    # ``Word`` holds it.  ``words._chr_text`` is the one encoder from letter
    # indices; no module builds its own (``map(chr, ...)``) or reads the list
    # copies ``raw``/``raw_range``.  Outside ``words.py`` no module reads an
    # ``indices`` attribute or builds an ``array``.
    import ast
    from pathlib import Path

    for path in sorted(Path(epilex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if path.name != "words.py" and isinstance(node, ast.Attribute):
                assert node.attr != "indices", (path.name, node.lineno)
            if path.name != "words.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [getattr(node, "module", None)] + [alias.name for alias in node.names]
                assert "array" not in modules, (path.name, node.lineno)
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if path.name != "words.py":
                assert getattr(func, "id", getattr(func, "attr", None)) != "array", (path.name, node.lineno)
            if isinstance(func, ast.Name) and func.id == "map" and node.args:
                first = node.args[0]
                assert not (isinstance(first, ast.Name) and first.id == "chr"), (path.name, node.lineno)
            if isinstance(func, ast.Attribute):
                assert func.attr not in ("raw", "raw_range"), (path.name, node.lineno)


# The number of ``isinstance`` calls in ``src/``.  A stream states its own
# structure, so callers should dispatch on type less over time: lower this
# when a site goes, and do not raise it.
ISINSTANCE_SITES = 5


def test_isinstance_sites_do_not_grow():
    import ast
    from pathlib import Path

    sites = [
        (path.name, node.lineno)
        for path in sorted(Path(epilex.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
    ]
    assert len(sites) <= ISINSTANCE_SITES, sites


def test_slotted_values_have_one_build_path():
    # ``Word`` and ``ExtremalResult`` are slotted frozen dataclasses that the
    # library fills through their slots' setters (``words._slot_setters``).
    # ``object.__setattr__`` stays in ``__init__`` and ``__post_init__``
    # bodies, where a frozen value sets what it derives, so no second, slower
    # build path grows; and neither class gets a per-instance dict back.
    import ast
    from pathlib import Path

    def calls(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__":
            yield getattr(node.value, "id", None), function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from calls(child, function)

    slotted = {}
    for path in sorted(Path(epilex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner, function, line in calls(tree, None):
            assert owner == "object" and function in ("__init__", "__post_init__"), (path.name, line)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in ("Word", "ExtremalResult"):
                slotted[node.name] = any(
                    kw.arg == "slots" and getattr(kw.value, "value", None) is True
                    for deco in node.decorator_list
                    for kw in getattr(deco, "keywords", ())
                )
    assert slotted == {"Word": True, "ExtremalResult": True}, slotted
    for cls in (epilex.Word, epilex.ExtremalResult):
        assert "__slots__" in cls.__dict__ and "__dict__" not in cls.__dict__, cls
