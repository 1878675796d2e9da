"""Regenerate data/pilots.json from a canonical run.

The fixtures pin observed values that the verification suite must
reproduce bit for bit (tracking deviations) or within a stated drift
(felix ratios, s2 share).  Rerun after any change that legitimately
alters numeric output, and treat any unexplained diff as a regression.

Usage: python3 tools/generate_pilots.py
"""

import json
import pathlib
import time

from titchmarsh import verify
from titchmarsh.sums import decompose_s1_s2

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "titchmarsh" / "data" / "pilots.json"


def main():
    t0 = time.perf_counter()
    tracking = {}
    for kind in verify.TRACKING_KINDS:
        recs = verify._tracking_run(
            kind, verify.CANONICAL_WORKERS, verify.CANONICAL_WIDTH, verify.TRACKING_CHECKPOINTS
        )
        devs = verify._deviations(recs)
        tracking[kind.label] = [d.hex() for d in devs]
        print(f"tracking {kind.label}: " +
              " ".join(f"{d:.3e}" for d in devs), flush=True)

    felix = {}
    for m in verify.FELIX_MODULI:
        rec = verify._felix_run(m, verify.CANONICAL_WORKERS, verify.CANONICAL_WIDTH, verify.FELIX_X)
        ratio = rec.t_sum / rec.predicted
        felix[str(m)] = ratio.hex()
        print(f"felix m={m}: ratio {ratio:.6f}")

    rep = decompose_s1_s2(2, 1, 10**6, B=2.0,
                          segment_width=verify.CANONICAL_WIDTH,
                          workers=verify.CANONICAL_WORKERS)
    share = rep.s2 / rep.total
    print(f"decompose s2/total: {share:.6f}")

    payload = {
        "config": {
            "workers": verify.CANONICAL_WORKERS,
            "segment_width": verify.CANONICAL_WIDTH,
            "a": 1,
            "checkpoints": list(verify.TRACKING_CHECKPOINTS),
            "felix_x": verify.FELIX_X,
        },
        "tracking": tracking,
        "felix": felix,
        "decompose": {"s2_over_total": share.hex()},
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT} in {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
