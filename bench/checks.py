"""Per-cell correctness checks on a run's written outputs.

Every function here returns a list of error strings; an empty list means
the check passed. None of them calls into eovsim: the Smallbank oracle
re-implements the contract from the semantics stated in the
`eovsim.smallbank` docstring, and the accounting checks read only
report.json, journeys.csv and blocks.jsonl.
"""

from __future__ import annotations

import csv
import json

VALID = "Valid"
WINDOW_COUNTS = {  # report.json field -> journeys.csv status
    "committed": "Committed",
    "invalid_committed": "InvalidCommitted",
    "dropped_endorse": "DroppedEndorsement",
    "dropped_broadcast": "DroppedBroadcast",
    "in_flight": "InFlight",
}


def read_blocks(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_journeys(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- Smallbank oracle ---------------------------------------------------------

def _checking(c: int) -> str:
    return f"cust/{c}/checking"


def _savings(c: int) -> str:
    return f"cust/{c}/savings"


def smallbank_writes(kind: str, accounts, amount, balance) -> list[tuple[str, int]]:
    """The writes one Smallbank operation makes; [] when it writes nothing.

    balance(key) returns the current value, or None for an unknown account,
    which rejects the operation.
    """
    if kind == "query":
        return []
    if kind == "deposit_checking":
        c, = accounts
        checking = balance(_checking(c))
        return [] if checking is None else [(_checking(c), checking + amount)]
    if kind == "transact_savings":
        c, = accounts
        savings = balance(_savings(c))
        if savings is None or savings + amount < 0:
            return []
        return [(_savings(c), savings + amount)]
    if kind == "write_check":
        c, = accounts
        checking, savings = balance(_checking(c)), balance(_savings(c))
        if checking is None or savings is None:
            return []
        penalty = 1 if checking + savings < amount else 0
        return [(_checking(c), checking - amount - penalty)]
    if kind == "send_payment":
        src, dst = accounts
        src_checking, dst_checking = balance(_checking(src)), balance(_checking(dst))
        if src_checking is None or dst_checking is None or src_checking < amount:
            return []
        return [(_checking(src), src_checking - amount),
                (_checking(dst), dst_checking + amount)]
    if kind == "amalgamate":
        src, dst = accounts
        src_checking, src_savings = balance(_checking(src)), balance(_savings(src))
        dst_checking = balance(_checking(dst))
        if src_checking is None or src_savings is None or dst_checking is None:
            return []
        return [(_checking(src), 0), (_savings(src), 0),
                (_checking(dst), dst_checking + src_checking + src_savings)]
    raise ValueError(f"unknown Smallbank operation {kind!r}")


def oracle_state(n_accounts: int, initial_balance: int, blocks: list[dict],
                 ops: dict) -> dict:
    """Serial replay of every Valid txn, in chain order, from genesis.

    ops maps txn id -> (kind, accounts, amount). Returns key -> (value,
    version) with version = (height, index in block) of the last write,
    (0, 0) for the genesis balances.
    """
    genesis = [key for c in range(n_accounts) for key in (_checking(c), _savings(c))]
    state = dict.fromkeys(genesis, (initial_balance, (0, 0)))

    def balance(key):
        entry = state.get(key)
        return None if entry is None else entry[0]

    for block in blocks:
        height = block["height"]
        if height == 0:
            continue
        for idx, (txn_id, flag) in enumerate(zip(block["txn_ids"], block["valid"])):
            if flag != VALID:
                continue
            kind, accounts, amount = ops[txn_id]
            for key, value in smallbank_writes(kind, accounts, amount, balance):
                state[key] = (value, (height, idx))
    return state


def compare_states(expected: dict, peer_states) -> list[str]:
    """peer_states yields (peer id, committed state); each must equal expected."""
    errors = []
    for peer_id, state in peer_states:
        if state == expected:
            continue
        diff = sorted(k for k in expected.keys() | state.keys()
                      if expected.get(k) != state.get(k))
        key = diff[0]
        errors.append(f"oracle: {peer_id} differs on {len(diff)} keys, first "
                      f"{key}: peer {state.get(key)} oracle {expected.get(key)}")
    return errors


def check_oracle(report: dict, blocks: list[dict], ops: dict,
                 peer_states) -> list[str]:
    workload = report["config"]["workload"]
    valid_ids = [t for b in blocks if b["height"] >= 1
                 for t, f in zip(b["txn_ids"], b["valid"]) if f == VALID]
    missing = [t for t in valid_ids if t not in ops]
    if missing:
        return [f"oracle: {len(missing)} Valid txns have no client proposal, "
                f"first {missing[0]}"]
    expected = oracle_state(workload["n_accounts"], workload["initial_balance"],
                            blocks, ops)
    return compare_states(expected, peer_states)


# -- chain and journey accounting -------------------------------------------

def check_accounting(report: dict, journeys: list[dict],
                     blocks: list[dict]) -> list[str]:
    errors = []
    if report["truncated"]:
        errors.append("run truncated at the drain limit")
    if not report["all_peers_agree"]:
        errors.append("report: peers disagree")

    start, end = report["window_start_us"], report["window_end_us"]
    window = [j for j in journeys if start <= int(j["submit_us"]) < end]
    if len(window) != report["submitted"]:
        errors.append(f"journeys: {len(window)} in window, report "
                      f"submitted {report['submitted']}")
    for field, status in WINDOW_COUNTS.items():
        counted = sum(1 for j in window if j["status"] == status)
        if counted != report[field]:
            errors.append(f"journeys: {counted} {status} in window, report "
                          f"{field} {report[field]}")

    heights = [b["height"] for b in blocks]
    if heights != list(range(len(blocks))):
        errors.append("blocks: heights are not contiguous from 0")
    if blocks and heights[-1] != report["final_height"]:
        errors.append(f"blocks: tip height {heights[-1]}, report "
                      f"final_height {report['final_height']}")
    if len(blocks) - 1 != report["blocks"]:
        errors.append(f"blocks: {len(blocks) - 1} workload blocks, report "
                      f"blocks {report['blocks']}")
    flag_of = {}
    flag_totals = {}
    for block in blocks:
        if len(block["valid"]) != len(block["txn_ids"]):
            errors.append(f"blocks: height {block['height']} has "
                          f"{len(block['txn_ids'])} txns and "
                          f"{len(block['valid'])} flags")
        for txn_id, flag in zip(block["txn_ids"], block["valid"]):
            if txn_id in flag_of:
                errors.append(f"blocks: txn {txn_id} appears twice")
            flag_of[txn_id] = flag
            if block["height"] >= 1:
                flag_totals[flag] = flag_totals.get(flag, 0) + 1
    for field, flag in (("valid_txns", VALID),
                        ("mvcc_conflicts", "MVCCConflict"),
                        ("policy_violations", "PolicyViolation")):
        if flag_totals.get(flag, 0) != report[field]:
            errors.append(f"blocks: {flag_totals.get(flag, 0)} {flag} flags, "
                          f"report {field} {report[field]}")

    for j in journeys:
        flag = flag_of.get(j["txn_id"])
        if j["status"] == "Committed" and flag != VALID:
            errors.append(f"journeys: {j['txn_id']} Committed but chain flag "
                          f"is {flag}")
        elif j["status"] == "InvalidCommitted" and flag in (VALID, None):
            errors.append(f"journeys: {j['txn_id']} InvalidCommitted but chain "
                          f"flag is {flag}")
    return errors
