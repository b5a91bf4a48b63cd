"""Checked-in replay fingerprints: the oracle for the replay loop.

``replay_goldens.json`` maps each parity config (dia/javanote with the
data plane off and on, five fault scenarios per app, and handoff and
repatriate on a clean and a lossy roaming profile) to the sha256 of
``EmulationResult.fingerprint()``.  The parity tests hold the row
input, the columnar input and every sharded client to these digests.

Re-record (only when a change is *meant* to alter replay results)::

    PYTHONPATH=src python -m tests.emulator.replay_goldens
"""

import hashlib
import json
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("replay_goldens.json")


def digest(result) -> str:
    """sha256 of one replay result's canonical fingerprint."""
    return hashlib.sha256(result.fingerprint().encode("utf-8")).hexdigest()


def golden(key: str) -> str:
    """The checked-in digest for one parity config."""
    return json.loads(GOLDENS_PATH.read_text())[key]


def golden_runs():
    """``(key, trace, config)`` for every parity config, in file order."""
    from . import test_mobility_replay as mobility
    from . import test_parallel_replay as parallel

    for app in parallel.APPS:
        trace = parallel.trace_for(app)
        for plane in ("off", "on"):
            yield (f"plane/{app}/{plane}", trace,
                   parallel.config_with_plane(plane))
        for case in parallel.FAULT_CASES:
            yield (f"fault/{app}/{case}", trace,
                   parallel.fault_config(trace, case))
    trace = mobility.roaming_trace()
    for mode in ("handoff", "repatriate"):
        yield (f"mobility/{mode}/roam", trace,
               mobility.roam_config(trace, mode))
        yield (f"mobility/{mode}/lossy-roam", trace,
               mobility.lossy_roam_config(trace, mode))


def record() -> dict:
    """Replay every parity config and rewrite the goldens file."""
    from repro.emulator.replay import TraceReplayer

    table = {key: digest(TraceReplayer(trace, config).run())
             for key, trace, config in golden_runs()}
    GOLDENS_PATH.write_text(json.dumps(table, indent=2) + "\n")
    return table


if __name__ == "__main__":
    for key, value in record().items():
        print(f"{key:32s} {value}")
