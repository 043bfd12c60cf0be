"""High-precision oracle tables for the test suite.

The oracle is deliberately naive: compensated term-by-term partial sums of
the hypergeometric representations in 50-digit mpmath arithmetic, with the
term count doubled until two successive truncations agree.  It shares no
summation routine with the library evaluators.  This is the one module that
needs mpmath; the package does not import it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import mpmath as mp

from .errors import OracleUnstableError

__all__ = [
    "OracleRow",
    "OracleTable",
    "build_oracle_tables",
    "write_oracle_tables",
    "load_oracle_tables",
]

ORACLE_VERSION = 1
_ORACLE_DPS = 50
_ORACLE_TOL = 1e-14
_ORACLE_MAX_TERMS = 1 << 16



def _compensated(terms) -> mp.mpc:
    s = mp.mpc(0)
    c = mp.mpc(0)
    for t in terms:
        y = t - c
        tmp = s + y
        c = (tmp - s) - y
        s = tmp
    return s


def _naive_2f1_partial(a, b, c, t, n_terms: int) -> mp.mpc:
    def terms():
        term = mp.mpc(1)
        for n in range(n_terms):
            yield term
            term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * t
    return _compensated(terms())


def _stabilize(partial) -> "tuple[mp.mpc, float]":
    """Double the term count until two successive truncations agree."""
    n = 32
    prev = None
    while n <= _ORACLE_MAX_TERMS:
        val = partial(n)
        if prev is not None:
            diff = abs(val - prev)
            if diff <= _ORACLE_TOL * max(abs(val), mp.mpf("1e-300")):
                return val, float(diff)
        prev = val
        n *= 2
    raise OracleUnstableError(
        f"partial sums did not stabilize to {_ORACLE_TOL} within {_ORACLE_MAX_TERMS} terms"
    )


def _oracle_ferrers_p(nu, mu, x) -> "tuple[mp.mpc, float]":
    nu, mu, x = mp.mpc(nu), mp.mpc(mu), mp.mpf(x)
    t = (1 - x) / 2
    pre = ((1 - x) / (1 + x)) ** (mu / 2) / mp.gamma(1 + mu)

    def partial(n):
        return pre * _naive_2f1_partial(-nu, nu + 1, 1 + mu, t, n)

    return _stabilize(partial)


def _oracle_legendre_p(nu, mu, x) -> "tuple[mp.mpc, float]":
    nu, mu, x = mp.mpc(nu), mp.mpc(mu), mp.mpf(x)
    t = (x - 1) / (x + 1)
    pre = (2 ** -nu * (x - 1) ** (mu / 2) * (x + 1) ** (nu - mu / 2)
           / mp.gamma(1 + mu))

    def partial(n):
        return pre * _naive_2f1_partial(-nu, mu - nu, 1 + mu, t, n)

    return _stabilize(partial)


def _oracle_gauss_2f1(a, b, c, t) -> "tuple[mp.mpc, float]":
    a, b, c, t = mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpf(t)
    return _stabilize(lambda n: _naive_2f1_partial(a, b, c, t, n))


_ORACLE_FNS = {
    "ferrers_p": _oracle_ferrers_p,
    "legendre_p": _oracle_legendre_p,
    "gauss_2f1": _oracle_gauss_2f1,
}

# reference points covered by the shipped table; first three parameters are
# (nu, mu) or (a, b, c), the last is the argument
_ORACLE_POINTS = (
    ("ferrers_p", (0j, 0j, 0.55)),
    ("ferrers_p", (1 + 0j, 0j, 0.6)),
    ("ferrers_p", (0.5 + 0.2j, 1.3 + 0j, 0.55)),
    ("ferrers_p", (0.3 + 0j, 1.2 + 0j, 0.5)),
    ("ferrers_p", (1.0 + 0.5j, -0.7 + 0.1j, 0.35)),
    ("ferrers_p", (2.5 + 0j, 0.5 + 0j, 0.8)),
    ("ferrers_p", (0.5 + 0.2j, 1.3 + 0j, 0.9)),
    ("legendre_p", (0.5 + 0.2j, 1.3 + 0j, 1.25)),
    ("legendre_p", (0.3 + 0j, 1.2 + 0j, 2.0)),
    ("legendre_p", (-0.4 + 0.3j, 0.8 - 0.2j, 1.6)),
    ("gauss_2f1", (0.3 + 0j, 0.7 + 0j, 1.2 + 0j, 0.4)),
    ("gauss_2f1", (0.5 + 0.2j, -0.3 + 0j, 1.1 + 0j, 0.25)),
)


@dataclass(frozen=True)
class OracleRow:
    key: str
    params: tuple
    value: complex
    err_bound: float


@dataclass(frozen=True)
class OracleTable:
    version: int
    rows: tuple

    def lookup(self, key: str, params) -> "OracleRow | None":
        flat = _flatten_params(params)
        for row in self.rows:
            if row.key == key and _flatten_params(row.params) == flat:
                return row
        return None


def _flatten_params(params) -> tuple:
    out = []
    for p in params:
        p = complex(p)
        out.append(p.real)
        if p.imag != 0.0:
            out.append(p.imag)
        else:
            out.append(0.0)
    return tuple(out)


def _hex_bits(v: float) -> str:
    return struct.pack(">d", float(v)).hex()


def _unhex_bits(s: str) -> float:
    return struct.unpack(">d", bytes.fromhex(s))[0]


def build_oracle_tables(path: "str | None" = None) -> OracleTable:
    """Compute the reference-value table by brute-force compensated partial
    sums, with term counts doubled until stable; optionally persist it."""
    rows = []
    with mp.workdps(_ORACLE_DPS):
        for key, params in _ORACLE_POINTS:
            val, err = _ORACLE_FNS[key](*params)
            rows.append(OracleRow(key, params, complex(val), err))
    table = OracleTable(ORACLE_VERSION, tuple(rows))
    if path is not None:
        write_oracle_tables(table, path)
    return table


def write_oracle_tables(table: OracleTable, path: str) -> None:
    lines = [
        f"# legdual oracle table, version {table.version}",
        "# columns: key  params(hex IEEE-754 doubles, comma-joined, "
        "re/im interleaved)  value_re(hex)  value_im(hex)  err_bound",
    ]
    for row in table.rows:
        flat = _flatten_params(row.params)
        lines.append(" ".join([
            row.key,
            ",".join(_hex_bits(v) for v in flat),
            _hex_bits(row.value.real),
            _hex_bits(row.value.imag),
            repr(row.err_bound),
        ]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_oracle_tables(path: str) -> OracleTable:
    rows = []
    version = None
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "version" in line and version is None:
                    version = int(line.rsplit(None, 1)[-1])
                continue
            key, phex, vre, vim, err = line.split()
            flat = [_unhex_bits(h) for h in phex.split(",")]
            params = tuple(
                complex(flat[i], flat[i + 1]) for i in range(0, len(flat) - 2, 2)
            ) + (flat[-2],)
            rows.append(OracleRow(
                key, params, complex(_unhex_bits(vre), _unhex_bits(vim)), float(err),
            ))
    return OracleTable(version if version is not None else ORACLE_VERSION, tuple(rows))
