"""Line-delimited JSON persistence for tuning logs.

One trial per line, keys in a fixed order so that identical searches
produce byte-identical files:

    {"idx": 0, "params": {"tiles": [1, 1], "unroll": 1},
     "cost": 812.0, "status": "evaluated", "seed": 7}

``cost`` is ``null`` for skipped trials.  The interpreter stats digest is
deliberately not serialized; it is advisory and excluded from trial
equality, so ``load(persist(log)) == log`` holds.
"""
import json
import os

from staircase.errors import MalformedLine
from staircase.tuner.space import Trial

__all__ = ["persist", "load", "trial_line"]


def trial_line(trial: Trial) -> str:
    """One trial as a JSON line without its newline, keys in log order."""
    record = {
        "idx": trial.idx,
        "params": {
            "tiles": [int(t) for t in trial.params["tiles"]],
            "unroll": int(trial.params["unroll"]),
        },
        "cost": trial.cost,
        "status": trial.status,
        "seed": trial.seed,
    }
    return json.dumps(record, separators=(", ", ": "))


def persist(log, path) -> None:
    """Write the trial list to ``path`` as JSON lines."""
    text = "".join(trial_line(trial) + "\n" for trial in log)
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(text)


def _bad(path, lineno, why) -> MalformedLine:
    return MalformedLine(f"{why} in {path}", lineno)


def _parse_record(obj, path, lineno) -> Trial:
    if not isinstance(obj, dict):
        raise _bad(path, lineno, "record is not a JSON object")
    missing = {"idx", "params", "cost", "status", "seed"} - set(obj)
    if missing:
        raise _bad(path, lineno, f"missing keys {sorted(missing)}")
    idx, params, cost_v, status, seed = (
        obj["idx"], obj["params"], obj["cost"], obj["status"], obj["seed"],
    )
    if not isinstance(idx, int) or isinstance(idx, bool):
        raise _bad(path, lineno, f"idx must be an integer, got {idx!r}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _bad(path, lineno, f"seed must be an integer, got {seed!r}")
    if status not in ("evaluated", "skipped"):
        raise _bad(path, lineno, f"unknown status {status!r}")
    if not isinstance(params, dict) or set(params) != {"tiles", "unroll"}:
        raise _bad(path, lineno, "params must hold exactly tiles and unroll")
    tiles = params["tiles"]
    if not isinstance(tiles, list) or not all(
        isinstance(t, int) and not isinstance(t, bool) for t in tiles
    ):
        raise _bad(path, lineno, "tiles must be a list of integers")
    unroll = params["unroll"]
    if not isinstance(unroll, int) or isinstance(unroll, bool):
        raise _bad(path, lineno, "unroll must be an integer")
    if status == "evaluated":
        if not isinstance(cost_v, (int, float)) or isinstance(cost_v, bool):
            raise _bad(path, lineno, "evaluated trial needs a numeric cost")
        cost_v = float(cost_v)
    elif cost_v is not None:
        raise _bad(path, lineno, "skipped trial must have null cost")
    return Trial(
        idx=idx,
        params={"tiles": list(tiles), "unroll": unroll},
        cost=cost_v,
        status=status,
        seed=seed,
    )


def load(path) -> list:
    """Read a JSONL tuning log back into a list of trials.

    Raises :class:`MalformedLine` naming the offending line for anything
    that is not a valid trial record; a trailing newline is tolerated.
    """
    trials = []
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _bad(path, lineno, f"invalid JSON ({exc.msg})") from exc
            trials.append(_parse_record(obj, path, lineno))
    return trials
