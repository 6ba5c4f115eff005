"""Selector compilation: lower an AST to one specialized Python closure.

The tree-walking evaluator (:mod:`repro.broker.selector.evaluator`) pays
an ``isinstance`` dispatch chain and a Python-level recursion per AST
node *per message*.  This module pays those costs **once per selector**
instead: the AST is lowered to straight-line Python source — identifier
loads hoisted into locals, SQL-92 three-valued logic inlined with
short-circuiting, LIKE patterns pre-compiled to anchored regexes, IN
lists frozen into sets — and ``compile()``-d into a single code object.
Evaluating a message is then one function call.

Semantics are *exactly* the evaluator's (the hypothesis equivalence
suite in ``tests/broker/test_selector_compile.py`` proves it on
randomized ASTs and messages): ``None`` represents SQL NULL/UNKNOWN
inside the generated code and is mapped back to
:data:`~repro.broker.selector.evaluator.UNKNOWN` at the API boundary.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..errors import InvalidSelectorError
from .ast import (
    Between,
    Binary,
    Expr,
    Identifier,
    InList,
    IsNull,
    Like,
    Literal,
    Unary,
    iter_identifiers,
)
from .evaluator import UNKNOWN, _like_regex  # noqa: F401 - re-exported for tests

__all__ = [
    "CompiledSelector",
    "compile_ast",
    "compiled_for_ast",
]

#: JMS header fields a selector identifier may name.  These never collide
#: with application properties (property names may not use the ``JMS``
#: prefix), so the generated prologue can route them through
#: ``message.header`` and everything else through ``message.properties``.
_HEADER_NAMES = frozenset(
    {
        "JMSMessageID",
        "JMSCorrelationID",
        "JMSPriority",
        "JMSTimestamp",
        "JMSDeliveryMode",
        "JMSDestination",
        "JMSRedelivered",
    }
)

_COMPARISON_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ORDERING_OPS = frozenset({"<", "<=", ">", ">="})


class CompiledSelector:
    """A selector lowered to a single generated function.

    Attributes
    ----------
    fn:
        The raw generated closure; returns ``True``/``False``/``None``
        (``None`` encodes SQL UNKNOWN) or a number/string for
        non-condition expressions.
    matches:
        ``Callable[[message], bool]`` — the hot-path predicate.
    source:
        The generated Python source (debugging/teaching aid).
    ast:
        The expression that was compiled.
    """

    __slots__ = ("fn", "matches", "source", "ast")

    def __init__(self, fn: Callable[[Any], Any], source: str, ast: Expr):
        self.fn = fn
        self.source = source
        self.ast = ast

        def matches(message: Any, _fn: Callable[[Any], Any] = fn) -> bool:
            return _fn(message) is True

        self.matches = matches

    def evaluate(self, message: Any) -> Any:
        """Three-valued result, API-compatible with the interpreter."""
        result = self.fn(message)
        return UNKNOWN if result is None else result

    def __call__(self, message: Any) -> bool:
        return self.fn(message) is True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledSelector({str(self.ast)!r})"


class _CodeGen:
    """Accumulates generated statements and shared constants."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.consts: Dict[str, object] = {}
        self.ident_vars: Dict[str, str] = {}
        self._tmp = 0

    def temp(self) -> str:
        self._tmp += 1
        return f"t{self._tmp}"

    def const(self, value: object) -> str:
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)


def _atom(value: object) -> str:
    """Literal constants as source text (repr round-trips all JMS types)."""
    if value is True:
        return "True"
    if value is False:
        return "False"
    return repr(value)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _num_check(expr: str) -> str:
    """Source for the evaluator's ``_is_number`` test (bool excluded)."""
    return f"(isinstance({expr}, _num) and not isinstance({expr}, bool))"


def _bool_check(expr: str) -> str:
    return f"({expr} is True or {expr} is False)"


_NOT_CONST = object()


def _compile_node(gen: _CodeGen, expr: Expr, depth: int) -> Tuple[str, object]:
    """Emit statements computing ``expr``; return ``(atom, const_value)``.

    ``atom`` is a variable name or literal source text holding the
    three-valued result (``None`` = UNKNOWN).  ``const_value`` is the
    compile-time value for :class:`Literal` nodes (else ``_NOT_CONST``),
    which lets comparisons constant-fold the literal side's type checks.
    """
    if isinstance(expr, Literal):
        return _atom(expr.value), expr.value
    if isinstance(expr, Identifier):
        return gen.ident_vars[expr.name], _NOT_CONST
    if isinstance(expr, Unary):
        return _compile_unary(gen, expr, depth)
    if isinstance(expr, Binary):
        return _compile_binary(gen, expr, depth)
    if isinstance(expr, Between):
        return _compile_between(gen, expr, depth)
    if isinstance(expr, InList):
        return _compile_in(gen, expr, depth)
    if isinstance(expr, Like):
        return _compile_like(gen, expr, depth)
    if isinstance(expr, IsNull):
        return _compile_is_null(gen, expr, depth)
    raise InvalidSelectorError(f"cannot compile AST node {type(expr).__name__}")


def _compile_unary(gen: _CodeGen, expr: Unary, depth: int) -> Tuple[str, object]:
    value, _ = _compile_node(gen, expr.operand, depth)
    out = gen.temp()
    if expr.op == "NOT":
        gen.emit(depth, f"{out} = (not {value}) if {_bool_check(value)} else None")
    elif expr.op == "+":
        gen.emit(depth, f"{out} = {value} if {_num_check(value)} else None")
    else:  # unary minus
        gen.emit(depth, f"{out} = (-{value}) if {_num_check(value)} else None")
    return out, _NOT_CONST


def _compile_binary(gen: _CodeGen, expr: Binary, depth: int) -> Tuple[str, object]:
    if expr.op == "AND":
        return _compile_and(gen, expr, depth)
    if expr.op == "OR":
        return _compile_or(gen, expr, depth)
    left, left_const = _compile_node(gen, expr.left, depth)
    right, right_const = _compile_node(gen, expr.right, depth)
    if expr.op in ("+", "-", "*", "/"):
        return _compile_arith(gen, expr.op, left, right, depth)
    return _compile_comparison(gen, expr.op, left, left_const, right, right_const, depth)


def _compile_and(gen: _CodeGen, expr: Binary, depth: int) -> Tuple[str, object]:
    out = gen.temp()
    left, _ = _compile_node(gen, expr.left, depth)
    # Kleene AND with short-circuit: False dominates, so the right-hand
    # side is skipped entirely when the left is False (sub-expressions
    # are pure, so skipping them cannot change the result).
    gen.emit(depth, f"if {left} is False:")
    gen.emit(depth + 1, f"{out} = False")
    gen.emit(depth, "else:")
    right, _ = _compile_node(gen, expr.right, depth + 1)
    gen.emit(depth + 1, f"if {right} is False:")
    gen.emit(depth + 2, f"{out} = False")
    gen.emit(depth + 1, f"elif {left} is None or {right} is None:")
    gen.emit(depth + 2, f"{out} = None")
    gen.emit(depth + 1, f"elif {left} is True:")
    gen.emit(depth + 2, f"{out} = True if {right} is True else None")
    gen.emit(depth + 1, "else:")
    gen.emit(depth + 2, f"{out} = None")  # non-boolean operand
    return out, _NOT_CONST


def _compile_or(gen: _CodeGen, expr: Binary, depth: int) -> Tuple[str, object]:
    out = gen.temp()
    left, _ = _compile_node(gen, expr.left, depth)
    gen.emit(depth, f"if {left} is True:")
    gen.emit(depth + 1, f"{out} = True")
    gen.emit(depth, "else:")
    right, _ = _compile_node(gen, expr.right, depth + 1)
    gen.emit(depth + 1, f"if {right} is True:")
    gen.emit(depth + 2, f"{out} = True")
    gen.emit(depth + 1, f"elif {left} is None or {right} is None:")
    gen.emit(depth + 2, f"{out} = None")
    gen.emit(depth + 1, f"elif {left} is False:")
    gen.emit(depth + 2, f"{out} = False if {right} is False else None")
    gen.emit(depth + 1, "else:")
    gen.emit(depth + 2, f"{out} = None")  # non-boolean operand
    return out, _NOT_CONST


def _compile_arith(
    gen: _CodeGen, op: str, left: str, right: str, depth: int
) -> Tuple[str, object]:
    out = gen.temp()
    guard = f"{_num_check(left)} and {_num_check(right)}"
    if op == "/":
        # SQL: division by zero poisons the predicate; exact integer
        # division stays an int when it divides evenly.
        gen.emit(depth, f"if {guard} and {right} != 0:")
        gen.emit(
            depth + 1,
            f"{out} = ({left} // {right}) if (isinstance({left}, int)"
            f" and isinstance({right}, int) and {left} % {right} == 0)"
            f" else ({left} / {right})",
        )
        gen.emit(depth, "else:")
        gen.emit(depth + 1, f"{out} = None")
    else:
        gen.emit(depth, f"if {guard}:")
        gen.emit(depth + 1, f"{out} = {left} {op} {right}")
        gen.emit(depth, "else:")
        gen.emit(depth + 1, f"{out} = None")
    return out, _NOT_CONST


def _compile_comparison(
    gen: _CodeGen,
    op: str,
    left: str,
    left_const: object,
    right: str,
    right_const: object,
    depth: int,
) -> Tuple[str, object]:
    # Normalise so a literal (if any) sits on the right; ordering ops flip.
    if left_const is not _NOT_CONST and right_const is _NOT_CONST:
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
        op = flip[op]
        left, right = right, left
        left_const, right_const = right_const, left_const
    pyop = _COMPARISON_OPS[op]
    out = gen.temp()
    if right_const is not _NOT_CONST:
        value = right_const
        if op in _ORDERING_OPS:
            if _is_number(value):
                gen.emit(
                    depth,
                    f"{out} = ({left} {pyop} {right}) if {_num_check(left)} else None",
                )
            else:
                # Ordering against a string/boolean constant is UNKNOWN
                # for every possible operand type.
                gen.emit(depth, f"{out} = None")
        elif _is_number(value):
            gen.emit(
                depth, f"{out} = ({left} {pyop} {right}) if {_num_check(left)} else None"
            )
        elif isinstance(value, bool):
            gen.emit(
                depth, f"{out} = ({left} {pyop} {right}) if {_bool_check(left)} else None"
            )
        else:  # string constant
            gen.emit(
                depth,
                f"{out} = ({left} {pyop} {right}) if isinstance({left}, str) else None",
            )
        return out, _NOT_CONST
    # Generic path: mirror the evaluator's _compare chain exactly.
    gen.emit(depth, f"if {left} is None or {right} is None:")
    gen.emit(depth + 1, f"{out} = None")
    gen.emit(depth, f"elif {_num_check(left)}:")
    gen.emit(depth + 1, f"{out} = ({left} {pyop} {right}) if {_num_check(right)} else None")
    if op in _ORDERING_OPS:
        # Booleans and strings support only (in)equality.
        gen.emit(depth, "else:")
        gen.emit(depth + 1, f"{out} = None")
    else:
        gen.emit(depth, f"elif {_bool_check(left)}:")
        gen.emit(
            depth + 1, f"{out} = ({left} {pyop} {right}) if {_bool_check(right)} else None"
        )
        gen.emit(depth, f"elif isinstance({left}, str) and isinstance({right}, str):")
        gen.emit(depth + 1, f"{out} = {left} {pyop} {right}")
        gen.emit(depth, "else:")
        gen.emit(depth + 1, f"{out} = None")
    return out, _NOT_CONST


def _compile_between(gen: _CodeGen, expr: Between, depth: int) -> Tuple[str, object]:
    value, _ = _compile_node(gen, expr.operand, depth)
    low, _ = _compile_node(gen, expr.low, depth)
    high, _ = _compile_node(gen, expr.high, depth)
    out = gen.temp()
    test = f"{low} <= {value} <= {high}"
    if expr.negated:
        test = f"not ({test})"
    gen.emit(
        depth,
        f"if {_num_check(value)} and {_num_check(low)} and {_num_check(high)}:",
    )
    gen.emit(depth + 1, f"{out} = {test}")
    gen.emit(depth, "else:")
    gen.emit(depth + 1, f"{out} = None")
    return out, _NOT_CONST


def _compile_in(gen: _CodeGen, expr: InList, depth: int) -> Tuple[str, object]:
    value, _ = _compile_node(gen, expr.operand, depth)
    members = gen.const(frozenset(expr.values))
    out = gen.temp()
    membership = f"{value} not in {members}" if expr.negated else f"{value} in {members}"
    gen.emit(depth, f"{out} = ({membership}) if isinstance({value}, str) else None")
    return out, _NOT_CONST


def _compile_like(gen: _CodeGen, expr: Like, depth: int) -> Tuple[str, object]:
    value, _ = _compile_node(gen, expr.operand, depth)
    # Pre-compile the pattern once; the hot path is one fullmatch call.
    matcher = gen.const(_like_regex(expr.pattern, expr.escape).fullmatch)
    out = gen.temp()
    test = f"{matcher}({value}) is None" if expr.negated else f"{matcher}({value}) is not None"
    gen.emit(depth, f"{out} = ({test}) if isinstance({value}, str) else None")
    return out, _NOT_CONST


def _compile_is_null(gen: _CodeGen, expr: IsNull, depth: int) -> Tuple[str, object]:
    if not isinstance(expr.operand, Identifier):
        raise InvalidSelectorError("IS NULL applies to identifiers only")
    value = gen.ident_vars[expr.operand.name]
    out = gen.temp()
    test = f"{value} is not None" if expr.negated else f"{value} is None"
    gen.emit(depth, f"{out} = {test}")
    return out, _NOT_CONST


def compile_ast(expr: Expr) -> CompiledSelector:
    """Lower ``expr`` to a :class:`CompiledSelector`.

    The generated function takes one message (anything exposing the
    :class:`~repro.broker.message.Message` interface: a ``properties``
    mapping plus the JMS header attributes when the selector references
    them) and returns ``True``/``False``/``None``.
    """
    gen = _CodeGen()
    identifiers = sorted(set(iter_identifiers(expr)))
    for position, name in enumerate(identifiers):
        gen.ident_vars[name] = f"v{position}"
    result, _ = _compile_node(gen, expr, 1)
    prologue: List[str] = ["def _selector(message):"]
    property_names = [name for name in identifiers if name not in _HEADER_NAMES]
    header_names = [name for name in identifiers if name in _HEADER_NAMES]
    if property_names:
        # Hoist every identifier load into a local, once per message.
        # ``dict.get`` returns None for absent properties — exactly the
        # NULL-as-UNKNOWN encoding the generated code uses.
        prologue.append("    _pg = message.properties.get")
        for name in property_names:
            prologue.append(f"    {gen.ident_vars[name]} = _pg({name!r})")
    if header_names:
        prologue.append("    _hd = message.header")
        for name in header_names:
            prologue.append(f"    {gen.ident_vars[name]} = _hd({name!r})")
    source = "\n".join(prologue + gen.lines + [f"    return {result}"])
    namespace: Dict[str, object] = {
        "_num": (int, float),
        "isinstance": isinstance,
        **gen.consts,
    }
    code = compile(source, f"<selector:{expr}>", "exec")
    exec(code, namespace)  # noqa: S102 - code is generated from our own AST
    fn = namespace["_selector"]
    return CompiledSelector(fn=fn, source=source, ast=expr)  # type: ignore[arg-type]


#: Compilation cache, keyed by ``repr`` of the AST.  Dataclass equality is
#: the wrong key here: ``Literal(True) == Literal(1) == Literal(1.0)`` (and
#: they hash alike), yet the three compile to different type guards and
#: division semantics.  ``repr`` spells the literal classes apart.
# Deliberate process-wide memo: keyed on source text, value is pure.
_COMPILED_CACHE: Dict[str, CompiledSelector] = {}  # repro: ignore[API002]
_COMPILED_CACHE_MAXSIZE = 4096


def compiled_for_ast(expr: Expr) -> CompiledSelector:
    """Cached compilation, shared across selectors whose (canonical) ASTs
    print identically — the type-aware analogue of the filter index's
    canonical-text sharing key."""
    key = repr(expr)
    cached = _COMPILED_CACHE.get(key)
    if cached is None:
        if len(_COMPILED_CACHE) >= _COMPILED_CACHE_MAXSIZE:
            _COMPILED_CACHE.clear()
        cached = _COMPILED_CACHE[key] = compile_ast(expr)
    return cached
