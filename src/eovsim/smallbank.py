"""Smallbank contract execution and workload generation.

Each customer has a checking and a savings account. The six operations and
the exact semantics implemented (and tested against a serial oracle):

  transact_savings(c, amt)   savings += amt; rejected if the result < 0
  deposit_checking(c, amt)   checking += amt
  send_payment(c1, c2, amt)  move amt checking->checking; rejected if
                             c1.checking < amt
  write_check(c, amt)        checking -= amt, with an extra 1 overdraft
                             penalty when checking + savings < amt
  amalgamate(c1, c2)         move all of c1's funds into c2.checking
  query(c)                   reads both balances, writes nothing

Execution is a pure function of (op, snapshot): it records every key read
with the version observed, never mutates the snapshot, and a rejection
yields an empty write set. Unknown accounts are rejected. Being pure, it
runs once per proposal and chain tip (Proposal.executed, endorser.endorse).

The genesis state is a rule, not a load (Genesis): every customer c with
0 <= c < n_accounts opens both balances at initial_balance, version (0, 0),
and no other key exists.
"""

from __future__ import annotations

import enum
import random
import re
from dataclasses import dataclass, field
from typing import Iterator

from .ledger import Entry, ReadSet, WriteSet


class OpKind(enum.Enum):
    TRANSACT_SAVINGS = "transact_savings"
    DEPOSIT_CHECKING = "deposit_checking"
    SEND_PAYMENT = "send_payment"
    WRITE_CHECK = "write_check"
    AMALGAMATE = "amalgamate"
    QUERY = "query"


TWO_ACCOUNT_OPS = (OpKind.SEND_PAYMENT, OpKind.AMALGAMATE)
AMOUNT_OPS = (OpKind.TRANSACT_SAVINGS, OpKind.DEPOSIT_CHECKING,
              OpKind.SEND_PAYMENT, OpKind.WRITE_CHECK)


@dataclass(slots=True)
class SmallbankOp:
    kind: OpKind
    accounts: tuple[int, ...]
    amount: int | None = None

    def __post_init__(self):
        if self.kind in TWO_ACCOUNT_OPS:
            if len(self.accounts) != 2 or self.accounts[0] == self.accounts[1]:
                raise ValueError(f"{self.kind.value} needs two distinct customers")
        elif len(self.accounts) != 1:
            raise ValueError(f"{self.kind.value} takes one customer")
        if self.amount is not None and self.amount < 0:
            raise ValueError("amounts must be non-negative")


@dataclass(slots=True)
class Proposal:
    txn_id: str
    client: str
    op: SmallbankOp
    # ledger tip hash -> (ReadSet, WriteSet), memoized by endorser.endorse
    executed: dict = field(default_factory=dict, compare=False, repr=False)


def checking_key(customer: int) -> str:
    return f"cust/{customer}/checking"


def savings_key(customer: int) -> str:
    return f"cust/{customer}/savings"


def execute(op: SmallbankOp, snapshot) -> tuple[ReadSet, WriteSet]:
    """Run op against a read-only state view, producing its read/write sets.

    snapshot only needs read_state(key) -> (value, version) | None.
    """
    rs = ReadSet()
    ws = WriteSet()

    def read(key: str) -> int | None:
        entry = snapshot.read_state(key)
        if entry is None:
            rs.reads.append((key, None))
            return None
        value, version = entry
        rs.reads.append((key, version))
        return value

    kind = op.kind
    if kind is OpKind.QUERY:
        c, = op.accounts
        read(checking_key(c))
        read(savings_key(c))
        return rs, ws

    if kind is OpKind.DEPOSIT_CHECKING:
        c, = op.accounts
        checking = read(checking_key(c))
        if checking is None:
            return rs, ws
        ws.writes.append((checking_key(c), checking + op.amount))
        return rs, ws

    if kind is OpKind.TRANSACT_SAVINGS:
        c, = op.accounts
        savings = read(savings_key(c))
        if savings is None or savings + op.amount < 0:
            return rs, ws
        ws.writes.append((savings_key(c), savings + op.amount))
        return rs, ws

    if kind is OpKind.WRITE_CHECK:
        c, = op.accounts
        checking = read(checking_key(c))
        savings = read(savings_key(c))
        if checking is None or savings is None:
            return rs, ws
        penalty = 1 if checking + savings < op.amount else 0
        ws.writes.append((checking_key(c), checking - op.amount - penalty))
        return rs, ws

    if kind is OpKind.SEND_PAYMENT:
        src, dst = op.accounts
        src_checking = read(checking_key(src))
        dst_checking = read(checking_key(dst))
        if (src_checking is None or dst_checking is None
                or src_checking < op.amount):
            return rs, ws
        ws.writes.append((checking_key(src), src_checking - op.amount))
        ws.writes.append((checking_key(dst), dst_checking + op.amount))
        return rs, ws

    if kind is OpKind.AMALGAMATE:
        src, dst = op.accounts
        src_checking = read(checking_key(src))
        src_savings = read(savings_key(src))
        dst_checking = read(checking_key(dst))
        if src_checking is None or src_savings is None or dst_checking is None:
            return rs, ws
        ws.writes.append((checking_key(src), 0))
        ws.writes.append((savings_key(src), 0))
        ws.writes.append((checking_key(dst),
                          dst_checking + src_checking + src_savings))
        return rs, ws

    raise ValueError(f"unhandled op kind {kind!r}")


@dataclass
class AccessPattern:
    kind: str  # "uniform" | "hotspot"
    fraction_hot: float
    prob_hot: float


@dataclass
class WorkloadConfig:
    """What generate() draws from, checked by config.py."""

    n_accounts: int
    op_mix: dict  # op name -> weight
    access: AccessPattern
    seed: int | str
    max_amount: int
    initial_balance: int


# A hotspot side picked with a probability below this counts as unreachable.
# generate redraws a two-account op's second account until it differs from
# the first, and waiting for a side picked with probability p takes about
# 1/p draws, so no op needs more than about 1,000 expected redraws.
MIN_SIDE_PROB = 1e-3


def _pick_account(rng: random.Random, cfg: WorkloadConfig) -> int:
    access = cfg.access
    if access.kind == "hotspot":
        hot = max(1, int(cfg.n_accounts * access.fraction_hot))
        if rng.random() < access.prob_hot:
            return rng.randrange(hot)
        if hot < cfg.n_accounts:
            return rng.randrange(hot, cfg.n_accounts)
        return rng.randrange(cfg.n_accounts)
    return rng.randrange(cfg.n_accounts)


def reachable_accounts(cfg: WorkloadConfig) -> int:
    """How many accounts _pick_account draws in practice (two-account ops
    need 2); a side picked with probability below MIN_SIDE_PROB is left out."""
    n, access = cfg.n_accounts, cfg.access
    if access.kind != "hotspot":
        return n
    hot = max(1, int(n * access.fraction_hot))
    if access.prob_hot > 1.0 - MIN_SIDE_PROB:
        return hot
    return n - hot if access.prob_hot < MIN_SIDE_PROB and hot < n else n


def generate(cfg: WorkloadConfig, count: int,
             client: str = "") -> list[Proposal]:
    """Deterministic proposal stream; op frequencies converge to op_mix."""
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = random.Random(f"{cfg.seed}:wl:{client}")
    kinds = [OpKind(name) for name in cfg.op_mix]
    weights = list(cfg.op_mix.values())
    out = []
    picks = rng.choices(kinds, weights=weights, k=count) if count else []
    for i, kind in enumerate(picks):
        a = _pick_account(rng, cfg)
        if kind in TWO_ACCOUNT_OPS:
            b = _pick_account(rng, cfg)
            while b == a:
                b = _pick_account(rng, cfg)
            accounts = (a, b)
        else:
            accounts = (a,)
        amount = rng.randint(1, cfg.max_amount) if kind in AMOUNT_OPS else None
        txn_id = f"{client or 'txn'}-{i:06d}"
        out.append(Proposal(txn_id=txn_id, client=client,
                            op=SmallbankOp(kind, accounts, amount)))
    return out


# A canonical balance key: customer numbers in decimal, without leading zeros.
_BALANCE_KEY = re.compile(r"cust/(0|[1-9][0-9]*)/(?:checking|savings)")


class Genesis:
    """The genesis world state as a read-only rule (ledger.Chain.genesis):
    both balances of every customer below n_accounts read one shared
    (initial_balance, (0, 0)) entry, and every other key reads None.
    Nothing is stored per key."""

    __slots__ = ("n_accounts", "entry")

    def __init__(self, n_accounts: int, initial_balance: int):
        self.n_accounts = n_accounts
        self.entry: Entry = (initial_balance, (0, 0))

    def get(self, key: str) -> Entry | None:
        match = _BALANCE_KEY.fullmatch(key)
        if match is not None and int(match[1]) < self.n_accounts:
            return self.entry
        return None

    def keys(self) -> Iterator[str]:
        """Every genesis key: 2 * n_accounts of them."""
        for c in range(self.n_accounts):
            yield checking_key(c)
            yield savings_key(c)


def total_balance(ledger) -> int:
    """Sum of all committed customer balances as of the ledger's height, for
    conservation checks: the genesis balances, plus what each key written
    since genesis added to its genesis balance."""
    genesis = ledger.chain.genesis
    total = 0 if genesis is None else 2 * genesis.n_accounts * genesis.entry[0]
    for key, before, after in ledger.changes():
        if key.startswith("cust/"):
            total += ((0 if after is None else after[0])
                      - (0 if before is None else before[0]))
    return total
