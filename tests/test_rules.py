"""The package's architecture rules: each cross-cutting fact has one owner, and a rule names
every other place in the package (found through conic_embed.__file__) that decides it."""

import ast
import functools
import pathlib
from typing import Callable, NamedTuple

import pytest

import conic_embed

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# the field that holds the identifier a node names
IDENTIFIER = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.Constant: "value",
              ast.FunctionDef: "name", ast.AsyncFunctionDef: "name", ast.ClassDef: "name"}
BLOCKS = ("x_blocks", "s_blocks", "c_blocks", "A_blocks")
EIGENSOLVERS = ("eig", "eigh", "eigvals", "eigvalsh")
ALIASES = ("map_solution_dual", "map_solution_primal", "inverse_map_dual", "inverse_map_primal")


class Rule(NamedTuple):
    name: str
    # (node, its enclosing functions, outermost first, whether one is exported or a public method)
    hits: Callable[[ast.AST, tuple, bool], bool]
    message: str
    only: tuple = ()  # the modules it is limited to; empty: every module
    exempt: tuple = ()  # its owners: a module ("sdo") or a function in one ("soco._frame")


def _ident(node):
    return getattr(node, IDENTIFIER.get(type(node), ""), None)


def _np_call(node, *names) -> bool:
    """node is a call of np.<one of names>"""
    f = node.func if isinstance(node, ast.Call) else None
    return isinstance(f, ast.Attribute) and f.attr in names and ast.unparse(f.value) == "np"


def _binop(node, op, right=None) -> bool:
    """node is a BinOp of op whose right operand is the constant right (any if None)"""
    return isinstance(node, ast.BinOp) and isinstance(node.op, op) \
        and (right is None or isinstance(node.right, ast.Constant) and node.right.value == right)


def _checked_arrays(node, functions, public) -> bool:
    """In a __post_init__, any np.array, np.asarray or setflags call; in an
    exported function, an np.array or np.asarray of a plain name."""
    coerces = _np_call(node, "array", "asarray")
    if any(f.name == "__post_init__" for f in functions):
        return coerces or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "setflags"
    return public and coerces and bool(node.args) and isinstance(node.args[0], ast.Name)


def _drops_head(node) -> bool:
    """node is v[1:] or stack[:, 1:]"""
    index = node.slice if isinstance(node, ast.Subscript) else None
    *lead, last = index.elts if isinstance(index, ast.Tuple) else [index]
    return isinstance(last, ast.Slice) and ast.unparse(last) == "1:" \
        and all(isinstance(p, ast.Slice) and ast.unparse(p) == ":" for p in lead)


def _tail_dot(node, *_) -> bool:
    """v[1:] @ v[1:], or a _row_dots of a [:, 1:] slice"""
    if _binop(node, ast.MatMult):
        return _drops_head(node.left) and _drops_head(node.right)
    return isinstance(node, ast.Call) and _ident(node.func) == "_row_dots" \
        and any(map(_drops_head, node.args))


def _provenance(node, *_) -> bool:
    """a raise of ProvenanceMismatch, or an n * (n - 1) // 2"""
    if isinstance(node, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return _ident(exc) == "ProvenanceMismatch"
    return _binop(node, ast.FloorDiv, 2) and _binop(node.left, ast.Mult) and any(
        _binop(factor, ast.Sub, 1) for factor in (node.left.left, node.left.right))


def _side_role(node, *_) -> bool:
    """a comparison (==, is, in, a match case or a dict key) with Side.DUAL
    or Side.PRIMAL, or a raise whose message starts with "side " """
    def names_role(item):
        items = item.elts if isinstance(item, (ast.Tuple, ast.List, ast.Set)) else [item]
        return any(i is not None and ast.unparse(i) in ("Side.DUAL", "Side.PRIMAL") for i in items)
    if isinstance(node, ast.Compare):
        return any(map(names_role, [node.left, *node.comparators]))
    if isinstance(node, (ast.MatchValue, ast.Dict)):
        return any(map(names_role, node.keys if isinstance(node, ast.Dict) else [node.value]))
    exc = node.exc if isinstance(node, ast.Raise) else None
    msg = exc.args[0] if isinstance(exc, ast.Call) and exc.args else None
    msg = msg.values[0] if isinstance(msg, ast.JoinedStr) and msg.values else msg
    return isinstance(msg, ast.Constant) and str(msg.value).startswith("side ")


def _reads_blocks(node, names=()) -> bool:
    """node reads x_blocks, s_blocks, c_blocks or A_blocks, a getattr(...), or one of names"""
    return any((isinstance(n, ast.Attribute) and n.attr in BLOCKS)
               or (isinstance(n, ast.Name) and n.id in names)
               or (isinstance(n, ast.Call) and ast.unparse(n.func) == "getattr")
               for n in ast.walk(node))


def _storage(node, functions, _) -> bool:
    """an np.concatenate, np.stack or np.hstack over cone blocks, or over a
    name that its outermost function binds to them"""
    if not _np_call(node, "concatenate", "stack", "hstack"):
        return False
    scope = ast.walk(functions[0]) if functions else ()
    names = {t.id for a in scope if isinstance(a, ast.Assign) and _reads_blocks(a.value)
             for t in a.targets if isinstance(t, ast.Name)}
    return any(_reads_blocks(arg, names) for arg in node.args)


def _lapack_eigensolver(node, *_) -> bool:
    """a *.linalg.eig* attribute, or an eig* name imported from numpy.linalg or scipy.linalg"""
    if isinstance(node, ast.ImportFrom):
        return node.module in ("numpy.linalg", "scipy.linalg") \
            and any(a.name.startswith("eig") for a in node.names)
    return isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS \
        and _ident(node.value) == "linalg"


RULES = [
    Rule("checked-arrays", _checked_arrays, "take arrays through linalg._checked"),
    Rule("tail-dot", _tail_dot, "a cone vector's tail dot product comes from soco._frame",
         exempt=("soco._frame",)),
    Rule("provenance", _provenance, "an embedding's row count and its match with a cone "
         "problem belong to sdo.EmbeddingMeta", exempt=("sdo",)),
    Rule("side-role", _side_role, "which part a side lifts, and the check of a side, belong "
         "to sdo.lifted_part", only=("embed", "partition")),
    Rule("storage", _storage, "read the flat parts that SocoProblem and SocoSolution keep",
         exempt=("soco",)),
    Rule("lapack-eigensolver", _lapack_eigensolver, "decompose through linalg.eigh"),
    Rule("cholesky", lambda node, *_: _ident(node) == "cholesky",
         "decide PSD questions through linalg", exempt=("linalg",)),
    Rule("side-aliases", lambda node, *_: _ident(node) in ALIASES,
         "call map_solution and inverse_map", exempt=("__init__",)),
]


def package_sources() -> dict:
    package = pathlib.Path(conic_embed.__file__).parent
    return {str(path): path.read_text() for path in sorted(package.glob("*.py"))}


@functools.lru_cache(maxsize=None)
def _places(text: str, init: str) -> list:
    """(node, its enclosing functions, whether it is public) for every node of
    the module source text; init, the package's __init__, names the exports."""
    exported = next(ast.literal_eval(node.value) for node in ast.parse(init).body
                    if isinstance(node, ast.Assign) and _ident(node.targets[0]) == "__all__")
    tree = ast.parse(text)
    # the exported functions and the public methods of the exported classes
    public = {f for top in tree.body if getattr(top, "name", None) in exported
              for f in (top.body if isinstance(top, ast.ClassDef) else [top])
              if isinstance(f, FUNCTIONS) and f.name[0] != "_"}
    out, stack = [], [(tree, ())]
    while stack:
        node, functions = stack.pop()
        functions = (*functions, node) if isinstance(node, FUNCTIONS) else functions
        out.append((node, functions, bool(functions) and functions[0] in public))
        stack += [(child, functions) for child in ast.iter_child_nodes(node)]
    return out


def violations(rules=RULES, sources=None) -> list:
    """"path:line: code", in order, of each node of sources ({path: source text};
    default: the package's modules) that one of rules names outside its owners."""
    sources = sources or package_sources()
    init = next(text for path, text in sources.items() if path.endswith("__init__.py"))
    found = []
    for path, text in sources.items():
        module = pathlib.PurePath(path).stem
        for rule in (r for r in rules if module in r.only or not r.only):
            found += [(path, node.lineno, ast.unparse(node).splitlines()[0])
                      for node, functions, public in _places(text, init)
                      if rule.hits(node, functions, public) and not
                      {module, *(f"{module}.{f.name}" for f in functions[-1:])} & {*rule.exempt}]
    return [f"{path}:{line}: {code}" for path, line, code in sorted(found)]


# (rule, module, one line appended to the module's source)
PLANTED = [
    ("checked-arrays", "soco", "def cone_position(v): return np.asarray(v)"),
    ("checked-arrays", "sdo", "def __post_init__(self): self.b.setflags(write=False)"),
    ("tail-dot", "verify", "v[1:] @ v[1:]"),
    ("tail-dot", "soco", "def _cone_frame(t): return _row_dots(t[:, 1:], t[:, 1:])"),
    ("provenance", "io", "raise ProvenanceMismatch('rows')"),
    ("provenance", "embed", "pairs = n * (n - 1) // 2"),
    ("side-role", "embed", "side is Side.DUAL"),
    ("side-role", "partition", "raise DimensionMismatch(f'side must be dual, got {side}')"),
    ("storage", "partition", "np.concatenate(sol.x_blocks)"),
    ("storage", "verify", "def f(sol): blocks = sol.s_blocks; return np.hstack(blocks)"),
    ("lapack-eigensolver", "partition", "np.linalg.eigh(a)"),
    ("lapack-eigensolver", "linalg", "from scipy.linalg import eigvalsh"),
    ("cholesky", "partition", "np.linalg.cholesky(a)"),
    ("side-aliases", "cli", "map_solution_dual"),
]
# the same for a use the rule allows
ALLOWED = [
    ("checked-arrays", "soco", "def _cone_position(v): return np.asarray(v)"),
    ("checked-arrays", "sdo", "def __post_init__(self): _checked((self.b,), ((None,),), 'b')"),
    ("tail-dot", "soco", "def _frame(t): return _row_dots(t[:, 1:], t[:, 1:])"),
    ("provenance", "sdo", "raise ProvenanceMismatch('rows')"),
    ("side-role", "sdo", "side is Side.DUAL"),
    ("storage", "soco", "np.concatenate(sol.x_blocks)"),
    ("lapack-eigensolver", "partition", "eigh(a)"),
    ("cholesky", "linalg", "np.linalg.cholesky(a)"),
    ("side-aliases", "__init__", "map_solution_dual"),
]
RULE = {rule.name: rule for rule in RULES}


def _planted(module: str, line: str) -> tuple:
    """The site of line appended to the module's source, and the sources of
    that module and of __init__, which names the exports; the other modules
    are left out, test_package_keeps_the_rule holding them clean."""
    sources = package_sources()
    path, init = (next(p for p in sources if pathlib.PurePath(p).stem == name)
                  for name in (module, "__init__"))
    planted = {init: sources[init], path: sources[path] + line + "\n"}
    return f"{path}:{len(planted[path].splitlines())}", planted


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_package_keeps_the_rule(rule):
    sites = violations([rule])
    assert not sites, "\n".join([*sites, rule.message])


@pytest.mark.parametrize("rule, module, line", PLANTED)
def test_planted_violation_is_named_at_its_line(rule, module, line):
    site, sources = _planted(module, line)
    assert [s.split(": ")[0] for s in violations([RULE[rule]], sources)] == [site]


@pytest.mark.parametrize("rule, module, line", ALLOWED)
def test_allowed_use_passes(rule, module, line):
    assert violations([RULE[rule]], _planted(module, line)[1]) == []


def test_every_rule_has_a_planted_and_an_allowed_case():
    assert {r for r, *_ in PLANTED} == {r for r, *_ in ALLOWED} == set(RULE)
