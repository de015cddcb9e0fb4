import itertools
import random

import pytest

from eovsim.committer import commit_block
from eovsim.config import ExperimentConfig
from eovsim.endorser import Endorsement, endorse, policy_satisfied
from eovsim.ledger import Block, Chain, CutReason, Ledger, ReadSet, WriteSet
from eovsim.ordering import Envelope
from eovsim.smallbank import (Genesis, OpKind, Proposal, SmallbankOp,
                              checking_key, execute, generate)


def workload(seed, n_accounts=4):
    """The checked workload of a config with `seed` and `n_accounts`."""
    return ExperimentConfig.from_dict({
        "seed": seed, "workload": {"n_accounts": n_accounts}}).workload


def seeded_ledger(n_accounts=4):
    """A ledger at height 0 on a chain that holds the workload's genesis
    rule; the genesis block writes nothing."""
    cfg = workload(n_accounts=n_accounts, seed=0)
    chain = Chain(genesis=Genesis(cfg.n_accounts, cfg.initial_balance))
    return committed(Ledger(chain), WriteSet(), "genesis")


def mk_endorsement(peer, txn_id="t0", payload=0):
    return Endorsement(txn_id=txn_id, peer=peer,
                       read_set=ReadSet([("k", (0, payload))]),
                       write_set=WriteSet([("k", payload)]))


def test_endorse_query_has_empty_write_set():
    ledger = seeded_ledger()
    proposal = Proposal("t1", "client000", SmallbankOp(OpKind.QUERY, (1,)))
    result = endorse(proposal, ledger, "peer000")
    assert result.write_set.writes == []
    assert result.peer == "peer000"


def test_two_peers_same_state_identical_rw_sets():
    a, b = seeded_ledger(), seeded_ledger()
    proposal = Proposal("t2", "c", SmallbankOp(OpKind.SEND_PAYMENT, (0, 1), 7))
    ea = endorse(proposal, a, "peer000")
    eb = endorse(proposal, b, "peer001")
    assert ea.payload_key() == eb.payload_key()


def test_endorsement_reflects_state_at_issuance():
    ledger = seeded_ledger()
    proposal = Proposal("t3", "c", SmallbankOp(OpKind.DEPOSIT_CHECKING, (2,), 3))
    result = endorse(proposal, ledger, "peer000")
    rs, ws = execute(proposal.op, ledger)
    assert (tuple(rs.reads), tuple(ws.writes)) == result.payload_key()


# --- one execution per committed state --------------------------------------

def committed(ledger, write_set, txn_id):
    """Commit a one-txn block carrying write_set, the way peers change state."""
    env = Envelope(txn_id=txn_id, endorsers=(), read_set=ReadSet(),
                   write_set=write_set, client="")
    block = Block(height=ledger.height + 1, prev_hash=ledger.tip_hash,
                  txns=[env], cut_reason=CutReason.COUNT_THRESHOLD,
                  created_at=0)
    commit_block(ledger, block, 0)
    return ledger


def test_peers_on_one_tip_share_one_execution(executions):
    a = seeded_ledger()
    b = a.fork()
    proposal = Proposal("t4", "c", SmallbankOp(OpKind.SEND_PAYMENT, (0, 1), 7))
    ea = endorse(proposal, a, "peer000")
    eb = endorse(proposal, b, "peer001")
    assert (ea.peer, eb.peer) == ("peer000", "peer001")
    assert ea.read_set is eb.read_set
    assert ea.write_set is eb.write_set
    assert executions == [proposal.op]


def test_a_committed_block_gives_a_fresh_execution(executions):
    a = seeded_ledger()
    b = a.fork()
    key = checking_key(2)
    proposal = Proposal("t5", "c", SmallbankOp(OpKind.DEPOSIT_CHECKING, (2,), 3))
    before = endorse(proposal, a, "peer000")
    assert before.read_set.reads == [(key, (0, 0))]
    committed(a, WriteSet([(key, 50)]), "t-other")
    after = endorse(proposal, a, "peer000")
    assert after.read_set.reads == [(key, (1, 0))]
    assert after.write_set.writes == [(key, 53)]
    stale = endorse(proposal, b, "peer001")  # b is still on the old tip
    assert stale.read_set is before.read_set
    assert stale.write_set is before.write_set
    assert stale.payload_key() != after.payload_key()
    assert len(executions) == 2


def test_memo_leaves_proposal_equality_and_repr_alone():
    cfg = workload(n_accounts=4, seed=3)
    used, fresh = generate(cfg, 3, "c"), generate(cfg, 3, "c")
    ledger = seeded_ledger()
    for proposal in used:
        endorse(proposal, ledger, "peer000")
    assert all(p.executed for p in used)
    assert used == fresh
    assert [repr(p) for p in used] == [repr(p) for p in fresh]


def test_policy_all_peers_threshold():
    full = [mk_endorsement(p) for p in ("p0", "p1", "p2", "p3")]
    ok, witness = policy_satisfied(4, full)
    assert ok
    assert [e.peer for e in witness] == ["p0", "p1", "p2", "p3"]

    ok, witness = policy_satisfied(4, full[:3])
    assert not ok and witness == []


def test_policy_divergent_write_set_breaks_full_match():
    endorsements = [mk_endorsement(p) for p in ("p0", "p1", "p2")]
    endorsements.append(mk_endorsement("p3", payload=9))
    ok, _ = policy_satisfied(4, endorsements)
    assert not ok
    # a lower threshold is satisfied by the matching trio
    ok, witness = policy_satisfied(3, endorsements)
    assert ok
    assert [e.peer for e in witness] == ["p0", "p1", "p2"]


def test_policy_mixed_txn_ids_fail_fast():
    with pytest.raises(ValueError):
        policy_satisfied(1, [mk_endorsement("p0", txn_id="a"),
                                  mk_endorsement("p1", txn_id="b")])


def test_policy_tie_breaks_on_lexicographic_peers():
    endorsements = [mk_endorsement("p1", payload=1), mk_endorsement("p3", payload=1),
                    mk_endorsement("p0", payload=2), mk_endorsement("p2", payload=2)]
    ok, witness = policy_satisfied(2, endorsements)
    assert ok
    assert [e.peer for e in witness] == ["p0", "p2"]


def test_policy_counts_each_peer_once():
    first = mk_endorsement("p0")
    ok, witness = policy_satisfied(2, [first, mk_endorsement("p0")])
    assert not ok and witness == []

    again = [mk_endorsement("p1"), first, mk_endorsement("p0"),
             mk_endorsement("p1")]
    ok, witness = policy_satisfied(2, again)
    assert ok
    assert [e.peer for e in witness] == ["p0", "p1"]
    assert witness[0] is first and witness[1] is again[0]
    ok, _ = policy_satisfied(3, again)
    assert not ok
    ok, witness = policy_satisfied(3, again + [mk_endorsement("p2")])
    assert ok and [e.peer for e in witness] == ["p0", "p1", "p2"]


def oracle_satisfiable(threshold, endorsements):
    """Brute force: any subset of >= threshold distinct peers, all payloads
    equal."""
    for size in range(threshold, len(endorsements) + 1):
        for subset in itertools.combinations(endorsements, size):
            if (len({e.payload_key() for e in subset}) == 1
                    and len({e.peer for e in subset}) >= threshold):
                return True
    return False


def random_endorsements(rng, peers=5):
    """Up to 6 endorsements; a peer may repeat, with any payload."""
    return [mk_endorsement(f"p{rng.randrange(peers)}",
                           payload=rng.randrange(3))
            for _ in range(rng.randint(0, 6))]


def test_policy_matches_brute_force_oracle():
    rng = random.Random(42)
    for _ in range(400):
        threshold = rng.randint(1, 5)
        endorsements = random_endorsements(rng)
        ok, witness = policy_satisfied(threshold, endorsements)
        assert ok == oracle_satisfiable(threshold, endorsements)
        if ok:
            assert len({e.peer for e in witness}) == len(witness) >= threshold
            assert len({e.payload_key() for e in witness}) == 1
            assert all(e in endorsements for e in witness)


def test_policy_monotonic_under_added_endorsements():
    rng = random.Random(43)
    for _ in range(300):
        threshold = rng.randint(1, 4)
        pool = [mk_endorsement(f"p{i}", payload=rng.randrange(2))
                for i in range(4)]
        rng.shuffle(pool)
        satisfied = False
        for upto in range(1, len(pool) + 1):
            ok, _ = policy_satisfied(threshold, pool[:upto])
            assert not (satisfied and not ok), "satisfied policy flipped back"
            satisfied = ok
