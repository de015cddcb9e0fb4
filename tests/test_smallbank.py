import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eovsim.config import ExperimentConfig
from eovsim.ledger import Ledger, WriteSet
from eovsim.smallbank import (Genesis, OpKind, Proposal, SmallbankOp,
                              checking_key, execute, generate,
                              reachable_accounts, savings_key, total_balance)


def seeded_state(balances):
    """balances: {customer: (checking, savings)} -> committed ledger."""
    ledger = Ledger()
    writes = []
    for cust, (checking, savings) in balances.items():
        writes.append((checking_key(cust), checking))
        writes.append((savings_key(cust), savings))
    ledger.apply_write_set(WriteSet(writes), (0, 0))
    return ledger


# --- operation semantics, checked against plain-dict arithmetic ------------

def test_deposit_checking():
    state = seeded_state({1: (100, 50)})
    rs, ws = execute(SmallbankOp(OpKind.DEPOSIT_CHECKING, (1,), 10), state)
    assert rs.reads == [(checking_key(1), (0, 0))]
    assert ws.writes == [(checking_key(1), 110)]


def test_send_payment_moves_funds():
    state = seeded_state({1: (100, 0), 2: (5, 0)})
    rs, ws = execute(SmallbankOp(OpKind.SEND_PAYMENT, (1, 2), 30), state)
    assert dict(ws.writes) == {checking_key(1): 70, checking_key(2): 35}


def test_send_payment_insufficient_funds_rejected():
    state = seeded_state({1: (30, 0), 2: (5, 0)})
    rs, ws = execute(SmallbankOp(OpKind.SEND_PAYMENT, (1, 2), 50), state)
    assert ws.writes == []
    assert {k for k, _ in rs.reads} == {checking_key(1), checking_key(2)}


def test_transact_savings():
    state = seeded_state({3: (0, 40)})
    _, ws = execute(SmallbankOp(OpKind.TRANSACT_SAVINGS, (3,), 25), state)
    assert ws.writes == [(savings_key(3), 65)]


def test_write_check_without_penalty():
    state = seeded_state({1: (100, 100)})
    _, ws = execute(SmallbankOp(OpKind.WRITE_CHECK, (1,), 150), state)
    assert ws.writes == [(checking_key(1), -50)]


def test_write_check_overdraft_penalty():
    state = seeded_state({1: (10, 5)})
    _, ws = execute(SmallbankOp(OpKind.WRITE_CHECK, (1,), 100), state)
    # checking + savings < amount: one extra unit as penalty
    assert ws.writes == [(checking_key(1), 10 - 100 - 1)]


def test_amalgamate_conserves_total():
    state = seeded_state({1: (11, 22), 2: (7, 0)})
    before = total_balance(state)
    _, ws = execute(SmallbankOp(OpKind.AMALGAMATE, (1, 2)), state)
    assert dict(ws.writes) == {checking_key(1): 0, savings_key(1): 0,
                               checking_key(2): 7 + 33}
    state.apply_write_set(ws, (1, 0))
    assert total_balance(state) == before


def test_query_reads_only():
    state = seeded_state({4: (12, 8)})
    rs, ws = execute(SmallbankOp(OpKind.QUERY, (4,)), state)
    assert ws.writes == []
    assert rs.reads == [(checking_key(4), (0, 0)), (savings_key(4), (0, 0))]


def test_unknown_account_rejected_with_reads_recorded():
    state = seeded_state({})
    rs, ws = execute(SmallbankOp(OpKind.DEPOSIT_CHECKING, (9,), 5), state)
    assert ws.writes == []
    assert rs.reads == [(checking_key(9), None)]


def test_execute_is_pure_and_never_mutates_snapshot():
    state = seeded_state({1: (50, 50), 2: (50, 50)})
    op = SmallbankOp(OpKind.AMALGAMATE, (1, 2))
    digest_before = state.state_digest()
    first = execute(op, state)
    second = execute(op, state)
    assert first == second
    assert state.state_digest() == digest_before


def test_read_before_write_invariant():
    # every written key whose new value depends on the old value is read
    state = seeded_state({1: (10, 10), 2: (10, 10)})
    ops = [
        SmallbankOp(OpKind.TRANSACT_SAVINGS, (1,), 5),
        SmallbankOp(OpKind.DEPOSIT_CHECKING, (1,), 5),
        SmallbankOp(OpKind.SEND_PAYMENT, (1, 2), 5),
        SmallbankOp(OpKind.WRITE_CHECK, (1,), 5),
        SmallbankOp(OpKind.AMALGAMATE, (1, 2)),
    ]
    for op in ops:
        rs, ws = execute(op, state)
        read_keys = {k for k, _ in rs.reads}
        for key, value in ws.writes:
            if value != 0:  # the zeroing writes of amalgamate are absolute
                assert key in read_keys, (op.kind, key)


def test_two_account_ops_require_distinct_customers():
    with pytest.raises(ValueError):
        SmallbankOp(OpKind.SEND_PAYMENT, (1, 1), 5)
    with pytest.raises(ValueError):
        SmallbankOp(OpKind.AMALGAMATE, (2, 2))


def test_negative_amount_rejected():
    with pytest.raises(ValueError):
        SmallbankOp(OpKind.DEPOSIT_CHECKING, (1,), -5)


# --- serial oracle: conservation under transfer-only mixes ------------------

def oracle_apply(balances, op):
    """Independent plain-dict interpreter for transfer ops."""
    if op.kind is OpKind.SEND_PAYMENT:
        src, dst = op.accounts
        if balances[src][0] >= op.amount:
            balances[src] = (balances[src][0] - op.amount, balances[src][1])
            balances[dst] = (balances[dst][0] + op.amount, balances[dst][1])
    elif op.kind is OpKind.AMALGAMATE:
        src, dst = op.accounts
        moved = sum(balances[src])
        balances[src] = (0, 0)
        balances[dst] = (balances[dst][0] + moved, balances[dst][1])
    return balances


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 4), st.integers(0, 4),
                          st.integers(0, 60)), min_size=1, max_size=40))
def test_transfer_ops_match_oracle_and_conserve(raw_ops):
    balances = {c: (30, 30) for c in range(5)}
    state = seeded_state(balances)
    expected = dict(balances)
    total = total_balance(state)
    for idx, (is_send, a, b, amount) in enumerate(raw_ops):
        if a == b:
            continue
        if is_send:
            op = SmallbankOp(OpKind.SEND_PAYMENT, (a, b), amount)
        else:
            op = SmallbankOp(OpKind.AMALGAMATE, (a, b))
        _, ws = execute(op, state)
        state.apply_write_set(ws, (1, idx))
        expected = oracle_apply(expected, op)
    assert total_balance(state) == total
    for cust, (checking, savings) in expected.items():
        assert state.read_state(checking_key(cust))[0] == checking
        assert state.read_state(savings_key(cust))[0] == savings


# --- workload generator ------------------------------------------------------

def workload(seed, **fields):
    """The checked workload of a config with `seed` and these fields."""
    return ExperimentConfig.from_dict({"seed": seed,
                                       "workload": fields}).workload


def test_generate_zero_count():
    assert generate(workload(seed=1), 0) == []


def test_generate_pure_deposit_mix():
    cfg = workload(op_mix={"deposit_checking": 1.0}, seed=2)
    proposals = generate(cfg, 1000)
    assert len(proposals) == 1000
    assert all(p.op.kind is OpKind.DEPOSIT_CHECKING for p in proposals)


def test_generate_deterministic_per_seed_and_client():
    cfg = workload(seed=3)
    a = generate(cfg, 50, client="c0")
    b = generate(cfg, 50, client="c0")
    c = generate(cfg, 50, client="c1")
    assert [(p.op.kind, p.op.accounts, p.op.amount) for p in a] \
        == [(p.op.kind, p.op.accounts, p.op.amount) for p in b]
    assert [(p.op.kind, p.op.accounts) for p in a] \
        != [(p.op.kind, p.op.accounts) for p in c]
    assert a[0].txn_id == "c0-000000"


def test_uniform_access_hit_counts_within_four_sigma():
    accounts = 100
    count = 100_000
    cfg = workload(n_accounts=accounts, op_mix={"deposit_checking": 1.0},
                   seed=4)
    proposals = generate(cfg, count)
    hits = [0] * accounts
    for p in proposals:
        hits[p.op.accounts[0]] += 1
    expected = count / accounts
    sigma = math.sqrt(count * (1 / accounts) * (1 - 1 / accounts))
    for h in hits:
        assert abs(h - expected) <= 4 * sigma


def test_hotspot_access_skews_toward_hot_accounts():
    cfg = workload(n_accounts=1000, op_mix={"deposit_checking": 1.0},
                   access={"kind": "hotspot", "fraction_hot": 0.01,
                           "prob_hot": 0.5},
                   seed=5)
    proposals = generate(cfg, 20_000)
    hot = sum(1 for p in proposals if p.op.accounts[0] < 10)
    assert 0.45 <= hot / len(proposals) <= 0.55


def test_op_frequencies_converge_to_mix():
    cfg = workload(seed=6)
    proposals = generate(cfg, 50_000)
    freq = {}
    for p in proposals:
        freq[p.op.kind.value] = freq.get(p.op.kind.value, 0) + 1
    for name, p in cfg.op_mix.items():
        assert abs(freq.get(name, 0) / len(proposals) - p) < 0.01


def test_genesis_rule_covers_every_account():
    cfg = workload(n_accounts=7, initial_balance=123, seed=0)
    genesis = Genesis(cfg.n_accounts, cfg.initial_balance)
    keys = list(genesis.keys())
    assert keys == [
        key for c in range(7) for key in (checking_key(c), savings_key(c))]
    assert genesis.entry == (123, (0, 0))
    for key in keys:
        assert genesis.get(key) is genesis.entry
    assert genesis.get(checking_key(7)) is None
    assert genesis.get(savings_key(7)) is None


@pytest.mark.parametrize("n,kind,fraction_hot,prob_hot,reach", [
    (5, "uniform", 0.01, 0.5, 5),
    (5, "hotspot", 0.0, 1.0, 1),   # the hot set is one account
    (2, "hotspot", 0.5, 0.0, 1),   # the cold set is one account
    (2, "hotspot", 0.5, 1e-300, 1),  # the hot side is never drawn
    (2, "hotspot", 0.5, 1e-6, 1),  # too rare to wait for
    (6, "hotspot", 0.5, 0.0, 3),
    (6, "hotspot", 0.5, 1.0, 3),
    (6, "hotspot", 1.0, 0.0, 6),   # no cold set: every account
    (6, "hotspot", 0.5, 0.5, 6),
])
def test_reachable_accounts_counts_the_accounts_generate_draws(
        n, kind, fraction_hot, prob_hot, reach):
    cfg = workload(n_accounts=n, op_mix={"deposit_checking": 1.0},
                   access={"kind": kind, "fraction_hot": fraction_hot,
                           "prob_hot": prob_hot},
                   seed=8)
    drawn = {p.op.accounts[0] for p in generate(cfg, 2000)}
    assert len(drawn) == reachable_accounts(cfg) == reach
