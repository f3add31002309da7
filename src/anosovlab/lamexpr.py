"""The expression language of a conformal torus's log-conformal factor.

A config's ``lambda`` string is parsed with ``ast`` and checked against a
whitelist before SymPy reads it, because SymPy evaluates its input as
Python: a string outside the language must run no code and evaluate
nothing.
"""

import ast

# the language of an expression lambda: number literals, x, y and pi, the
# arithmetic operators (^ is read as **, as SymPy reads it), unary signs, and
# one-argument calls of these functions
LAMBDA_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh",
                    "tanh")


def _is_number_literal(node):
    return (isinstance(node, ast.Constant)
            and type(node.value) in (int, float))


def _lambda_node_ok(node, funcs):
    """Whether one node of a parsed lambda is in its language; ``funcs``
    holds the ids of the nodes that are called."""
    if isinstance(node, ast.Constant):
        return _is_number_literal(node)
    if isinstance(node, ast.Name):
        return node.id in (LAMBDA_FUNCTIONS if id(node) in funcs
                           else ("x", "y", "pi"))
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and len(node.args) == 1
                and not node.keywords)
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, (ast.UAdd, ast.USub))
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Pow,
                                                           ast.BitXor)):
        # x or y in the base, a signed number literal as the exponent
        exp = node.right
        if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, (ast.UAdd,
                                                               ast.USub)):
            exp = exp.operand
        return _is_number_literal(exp) and any(
            isinstance(n, ast.Name) and n.id in ("x", "y")
            for n in ast.walk(node.left))
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div))
    # operators and contexts, checked with the node that holds them
    return isinstance(node, (ast.operator, ast.unaryop, ast.expr_context))


def check_lambda(expr):
    """Refuse a lambda string outside the expression language before SymPy
    evaluates it, naming the first part that is outside.  No power of
    constants (9**9**9) is ever evaluated."""
    try:
        tree = ast.parse(expr, mode="eval")
    # deep nesting ends the parse in RecursionError or MemoryError
    except (SyntaxError, ValueError, RecursionError, MemoryError) as e:
        raise ValueError(f"lambda {expr!r} does not parse: {e}") from None
    funcs = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree.body):
        if not _lambda_node_ok(node, funcs):
            part = ast.get_source_segment(expr, node)
            raise ValueError(
                f"lambda {expr!r}: {part!r} is outside the expression "
                "language: numbers, x, y, pi, + - * / ** ^ and one-argument "
                f"{' '.join(LAMBDA_FUNCTIONS)}; a power needs x or y in its "
                "base and a number as its exponent")
