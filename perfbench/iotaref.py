"""A small reference implementation of the one-combinator calculus.

Written from the grammar and rewrite rules alone (L = 0 | 1 L L; i x -> x S K,
K x y -> x, S x y z -> x z (y z)), so that the checker never asks tuatara to
judge its own output.  Terms are atoms (strings) or applications (pairs).
"""

from __future__ import annotations

I_BITS = "0"
K_BITS = "1010100"  # i (i (i i)) reduces to K
S_BITS = "101010100"  # i (i (i (i i))) reduces to S


class StepLimit(Exception):
    """The reference reducer gave up before reaching the requested form."""


def parse(bits: str):
    """Term of a program; ValueError unless bits is exactly one program."""
    need = 1
    for c in bits:
        if c not in "01":
            raise ValueError(f"not a bit string: {bits!r}")
        if need == 0:
            raise ValueError("trailing bits after a complete program")
        need += 1 if c == "1" else -1
    if need:
        raise ValueError("incomplete program")
    stack: list = []
    for c in reversed(bits):
        if c == "0":
            stack.append("i")
        else:
            f = stack.pop()
            stack.append((f, stack.pop()))
    return stack[0]


def is_program(bits: str) -> bool:
    try:
        parse(bits)
    except ValueError:
        return False
    return True


_SPELL = {"i": I_BITS, "K": K_BITS, "S": S_BITS}


def spell(t) -> str:
    """Program bits of an i/S/K term."""
    out = []
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, tuple):
            out.append("1")
            todo.append(u[1])
            todo.append(u[0])
        else:
            out.append(_SPELL[u])
    return "".join(out)


def _unwind(head, args: list):
    while isinstance(head, tuple):
        args.append(head[1])
        head = head[0]
    return head


def _head_steps(head, args: list, budget: list):
    """Contract head redexes until the head is stuck; args[-1] is the first argument."""
    while True:
        head = _unwind(head, args)
        if head == "i" and args:
            head = ((args.pop(), "S"), "K")
        elif head == "K" and len(args) >= 2:
            head = args.pop()
            args.pop()
        elif head == "S" and len(args) >= 3:
            x, y, z = args.pop(), args.pop(), args.pop()
            head = ((x, z), (y, z))
        else:
            return head
        budget[0] -= 1
        if budget[0] < 0:
            raise StepLimit()


def normalize(t, max_steps: int):
    """Normal form by leftmost-outermost reduction, and the steps it took."""
    budget = [max_steps]
    done: list = []
    jobs: list = [(True, t)]
    while jobs:
        is_norm, v = jobs.pop()
        if is_norm:
            args: list = []
            head = _head_steps(v, args, budget)
            jobs.append((False, (head, len(args))))
            jobs.extend((True, a) for a in args)  # first argument runs first
        else:
            head, n = v
            if n:
                vals = done[-n:]
                del done[-n:]
                for a in vals:
                    head = (head, a)
            done.append(head)
    return done[0], max_steps - budget[0]


def whnf(t, max_steps: int):
    """Head atom and arguments (first argument first) of the weak head normal form."""
    args: list = []
    head = _head_steps(t, args, [max_steps])
    return head, args[::-1]


def equal(a, b) -> bool:
    todo = [(a, b)]
    while todo:
        u, v = todo.pop()
        if isinstance(u, tuple) and isinstance(v, tuple):
            todo.append((u[0], v[0]))
            todo.append((u[1], v[1]))
        elif u != v or isinstance(u, tuple) or isinstance(v, tuple):
            return False
    return True


_K_TREE = parse(K_BITS)
_S_TREE = parse(S_BITS)


def read_back(t):
    """Replace the K and S spellings inside a parsed output with the atoms they name."""
    if equal(t, _S_TREE):
        return "S"
    if equal(t, _K_TREE):
        return "K"
    if isinstance(t, tuple):
        return (read_back(t[0]), read_back(t[1]))
    return t


def has_redex(t) -> bool:
    todo = [t]
    while todo:
        args: list = []
        head = _unwind(todo.pop(), args)
        arity = {"i": 1, "K": 2, "S": 3}.get(head)
        if arity is not None and len(args) >= arity:
            return True
        todo.extend(args)
    return False


# ---------------------------------------------------------------------------
# bracket abstraction, for the list codec constants


def _free(var: str, t) -> bool:
    if isinstance(t, tuple):
        return _free(var, t[0]) or _free(var, t[1])
    return t == var


def abstract(var: str, t):
    """Combinator term T with T v = t for every v (standard S/K bracket rules)."""
    if t == var:
        return (("S", "K"), "K")
    if not _free(var, t):
        return ("K", t)
    f, x = t
    if x == var and not _free(var, f):
        return f  # eta
    return (("S", abstract(var, f)), abstract(var, x))


FALSE = "K"  # F m n -> m; also the empty list
TRUE = ("K", (("S", "K"), "K"))  # T m n -> n
PAIR = abstract("$x", abstract("$y", abstract("$z", (("$z", "$x"), "$y"))))
_SKK = (("S", "K"), "K")
OMEGA = ((("S", _SKK), _SKK), (("S", _SKK), _SKK))  # (S I I)(S I I), no normal form


def encode(bits: str) -> str:
    """Program bits of the list of booleans holding bits (cons x xs = PAIR x xs)."""
    t = FALSE
    for c in reversed(bits):
        t = ((PAIR, TRUE if c == "1" else FALSE), t)
    return spell(t)


def decode(program: str, max_steps: int = 10 ** 6) -> str:
    """Bits of a list-shaped program, read by probing weak head normal forms."""
    t = parse(program)
    out = []
    while True:
        head, args = whnf(((t, "$a"), "$b"), max_steps)
        if head == "$a" and not args:
            return "".join(out)
        if head != "$a" or len(args) != 3 or args[2] != "$b":
            raise ValueError("not a list node")
        bit, _ = whnf(((args[0], "$f"), "$t"), max_steps)
        if bit not in ("$f", "$t"):
            raise ValueError("list element is not a boolean")
        out.append("0" if bit == "$f" else "1")
        t = args[1]
