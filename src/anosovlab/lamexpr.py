"""The expression language of a conformal torus's log-conformal factor.

``compile_lambda`` is the one reader of a config's ``lambda`` string: one
walk of its ``ast`` tree refuses a part outside the language, naming it, or
writes straight-line numpy code for lambda and its gradient by forward-mode
differentiation (Griewank & Walther, *Evaluating Derivatives*, SIAM 2008).
"""

import ast
import sys

import numpy as np

LAMBDA_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh",
                    "tanh")
_DERIVATIVES = {"sin": "cos({u})", "cos": "-sin({u})", "exp": "{v}",
                "tan": "1.0 + {v} * {v}", "tanh": "1.0 - {v} * {v}",
                "log": "1.0 / {u}", "sqrt": "0.5 / {v}", "sinh": "cosh({u})",
                "cosh": "sinh({u})"}
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_FOLD = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
         "**": np.power, **{f: getattr(np, f) for f in LAMBDA_FUNCTIONS}}
_SIGNS = {ast.UAdd: 1.0, ast.USub: -1.0}
_NAMES = {"x": ("x", 1.0, 0.0), "y": ("y", 0.0, 1.0), "pi": (np.pi, 0.0, 0.0)}


class _Code:
    """The straight-line code of one lambda."""

    def __init__(self, expr):
        self.expr, self.lines = expr, []

    def refuse(self, node):
        raise ValueError(
            f"lambda {self.expr!r}: {ast.get_source_segment(self.expr, node)!r}"
            " is outside the expression language: numbers, x, y, pi, + - * / "
            f"** ^ and one-argument {' '.join(LAMBDA_FUNCTIONS)}; a power "
            "needs x or y in its base and a number as its exponent")

    def let(self, text):
        self.lines.append(f"t{len(self.lines)} = {text}")
        return f"t{len(self.lines) - 1}"

    def op(self, a, sym, b=None):
        """``a sym b``, or ``sym(a)`` for a function: folded when constant
        (FloatingPointError unless finite), pruned where a 0 or 1 decides."""
        args = (a,) if b is None else (a, b)
        if str not in map(type, args):
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return float(_FOLD[sym](*args))
        if sym == "*" and 0.0 in args:
            return 0.0
        if sym == "*" and a == 1.0 or sym == "+" and a == 0.0:
            return b
        if sym in ("*", "/", "**") and b == 1.0 or sym in "+-" and b == 0.0:
            return a
        return self.let(f"{sym}({a})" if b is None else f"{a} {sym} {b}")


def _walk(node, code):
    """The terms (lambda, lambda_x, lambda_y) of one node, or refuse it; a
    term is a finite float or the name of an array (x, y or a temporary)."""
    if (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and abs(node.value) <= sys.float_info.max):  # not inf, 10**400
        return float(node.value), 0.0, 0.0
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
        return tuple(code.op(_SIGNS[type(node.op)], "*", t)
                     for t in _walk(node.operand, code))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        (a, ax, ay), (b, bx, by) = _walk(node.left, code), _walk(node.right,
                                                                 code)
        sym, op = _OPS[type(node.op)], code.op
        v = op(a, sym, b)
        if sym in "+-":
            return v, op(ax, sym, bx), op(ay, sym, by)
        # the product and quotient rules
        return v, *(op(op(da, "*", b), "+", op(a, "*", db)) if sym == "*"
                    else op(op(da, "-", op(v, "*", db)), "/", b)
                    for da, db in ((ax, bx), (ay, by)))
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and len(node.args) == 1
                and not node.keywords):
            code.refuse(node)
        if (f := node.func.id) not in LAMBDA_FUNCTIONS:
            code.refuse(node.func)
        u, ux, uy = _walk(node.args[0], code)
        v, d = code.op(u, f), _DERIVATIVES[f]
    elif isinstance(node, ast.BinOp) and type(node.op) in (ast.Pow,
                                                           ast.BitXor):
        # x or y in the base, a signed number literal as the exponent
        names = {n.id for n in ast.walk(node.left) if isinstance(n, ast.Name)}
        if not (isinstance(getattr(node.right, "operand", node.right),
                           ast.Constant) and names & {"x", "y"}):
            code.refuse(node)
        (u, ux, uy), n = _walk(node.left, code), _walk(node.right, code)[0]
        # the derivative of u**0 is 0, not 0 * u**-1, which is NaN at u = 0
        v, d = code.op(u, "**", n), n and f"{n} * {{u}} ** {n - 1.0}"
    else:
        code.refuse(node)
    # the chain rule for v = f(u), with d = f'(u) written in u and v
    if ux == uy == 0.0:
        return v, 0.0, 0.0
    d = code.let(d.format(u=u, v=v)) if isinstance(d, str) else d
    return v, code.op(d, "*", ux), code.op(d, "*", uy)


def compile_lambda(expr):
    """The function (x, y) -> (lambda, lambda_x, lambda_y), each of x's
    shape, of a lambda string.  Only float reprs of its number literals
    reach ``compile`` and the function has no builtins, so no string runs
    code, and no power of constants (9**9**9) is ever evaluated."""
    code = _Code(expr)
    try:
        terms = _walk(ast.parse(expr, mode="eval").body, code)
    # deep nesting ends the parse or the walk in RecursionError or
    # MemoryError, and a constant part such as 1/0 in FloatingPointError
    except (SyntaxError, RecursionError, MemoryError, FloatingPointError) as e:
        raise ValueError(f"lambda {expr!r} cannot be read: {e}") from None
    # a constant term is broadcast to x's shape
    out = [t if isinstance(t, str) else code.let(f"x - x + {t}")
           for t in terms]
    scope = {"__builtins__": {}, **{f: _FOLD[f] for f in LAMBDA_FUNCTIONS}}
    exec(compile("\n    ".join(["def f(x, y):", *code.lines,
                                f"return {', '.join(out)}"]),
                 "<lambda>", "exec"), scope)
    return scope["f"]
