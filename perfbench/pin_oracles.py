"""Regenerate ``oracles.json``: every workload's expected results, exactly.

Run from the repository root::

    python3 perfbench/pin_oracles.py

Every value is computed under the ``naive`` measure backend (the
frozenset reference kernels, independent of the bitmask engine the
benchmark times) and asserted against the paper's closed forms where one
exists: ``2^-n`` for the coin, ``multiparty_run_level`` for the
n-general attack, Proposition 10 (``pts_interval``) for point cuts.
Fractions are written as ``"p/q"`` strings.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def pin() -> dict:
    import repro.attack as attack_api
    import repro.core as core
    import repro.examples_lib as examples
    from repro.probability import use_backend

    import workloads as w

    oracles = {}
    with use_backend("naive"):
        # coin_async: inner/outer 2^-n and 1-2^-n; clocked opponent 1/2.
        example = examples.repeated_coin_system(w.COIN_TOSSES)
        assignment = core.ProbabilityAssignment(example.post_toss_assignment())
        anchor = list(example.psys.system.runs[0].points())[1]
        interval = assignment.probability_interval(0, anchor, example.most_recent_heads)
        low = Fraction(1, 2**w.COIN_TOSSES)
        assert interval == (low, 1 - low), interval
        against = core.opponent_assignment(example.psys, 1)
        clocked = {
            against.probability(0, point, example.most_recent_heads)
            for run in example.psys.system.runs
            for point in run.points()
            if point.time >= 1
        }
        assert clocked == {Fraction(1, 2)}, clocked
        oracles["coin_async"] = {
            "interval": w.frac_pair(interval),
            "clocked": sorted(w.frac(value) for value in clocked),
        }

        # multiparty_ck: every shape x loss the workload can draw.
        table = {}
        for lieutenants, messengers in w.multiparty_shapes():
            for loss in w.MULTIPARTY_LOSSES:
                attack = attack_api.build_multiparty(lieutenants, messengers, loss)
                run_level = attack_api.run_level_probability(attack)
                closed = attack_api.multiparty_run_level(lieutenants, messengers, loss)
                assert run_level == closed, (lieutenants, messengers, loss)
                threshold = attack_api.post_threshold(attack)
                table[w.multiparty_key(lieutenants, messengers, loss)] = {
                    "run_level": w.frac(run_level),
                    "post_threshold": w.frac(threshold),
                }
                print(lieutenants, messengers, loss, w.frac(threshold), flush=True)
        oracles["multiparty_ck"] = table

        # sweep_mix: the serial sweep's rows.
        rows = attack_api.guarantee_sweep(w.SWEEP_MESSENGERS, w.SWEEP_LOSSES)
        oracles["sweep_mix"] = {"rows": w.sweep_row_strings(rows)}

        # type3_cuts: every query kind at every anchor the workload draws.
        cuts = {}
        three = examples.repeated_coin_system(w.CUT_TOSSES)
        region_of = three.post_toss_assignment()
        fact = three.most_recent_heads
        anchor = list(three.psys.system.runs[0].points())[1]
        for width in (0, 1):
            cuts[f"banded_width{width}"] = w.frac_pair(
                core.interval_over_banded_cuts(three.psys, region_of, w.P1, anchor, fact, width)
            )
        assert cuts["banded_width0"] == ["1/2", "1/2"]
        cuts["state_unclocked"] = w.frac_pair(
            core.interval_over_cuts(three.psys, region_of, w.P1, anchor, fact, "state")
        )
        for time in range(1, w.CUT_TOSSES + 1):
            clocked_anchor = list(three.psys.system.runs[0].points())[time]
            cuts[f"state_clocked_time{time}"] = w.frac_pair(
                core.interval_over_cuts(
                    three.psys, region_of, w.P2, clocked_anchor, fact, "state"
                )
            )
        two = examples.repeated_coin_system(w.PTS_TOSSES)
        two_region = two.post_toss_assignment()
        two_anchor = list(two.psys.system.runs[0].points())[1]
        enumerated = core.interval_over_cuts(
            two.psys, two_region, w.P1, two_anchor, two.most_recent_heads, "pts"
        )
        closed = core.pts_interval(two.psys, two_region, w.P1, two_anchor, two.most_recent_heads)
        assert tuple(enumerated) == tuple(closed), (enumerated, closed)
        cuts["pts"] = w.frac_pair(enumerated)
        oracles["type3_cuts"] = cuts
    return oracles


def main() -> int:
    oracles = pin()
    path = HERE / "oracles.json"
    path.write_text(json.dumps(oracles, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
