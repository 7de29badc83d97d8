"""How well can window centers possibly localize?

Walks one 8 s clip: prints the dense sweep geometry, then shows the
oracle error (best achievable when predictions are restricted to window
centers) as the window count doubles.  Away from the clip edges each
doubling roughly halves the floor; the clamped end windows keep the
last few doublings from paying off in full.
"""

import math

from pnrkit import (
    Clip,
    PnrAnnotation,
    WindowingConfig,
    dense_windows,
    oracle_error,
    window_center_time,
)


def main():
    clip = Clip("demo", fps=30.0, num_frames=240)
    sweep = dense_windows(clip, WindowingConfig(num_windows=8))
    print(f"clip: {clip.num_frames} frames at {clip.fps:g} fps")
    print("\nN=8 sweep:")
    for win in sweep:
        print(f"  [{win.start:>3d}, {win.end:>3d})  center {window_center_time(win, clip.fps):.3f}s")

    print("\nmean oracle error over every possible truth frame:")
    previous = None
    for count in (2, 4, 8, 16, 32, 64):
        cfg = WindowingConfig(num_windows=count)
        mean = math.fsum(
            oracle_error(PnrAnnotation(p), clip, cfg) for p in range(clip.num_frames)
        ) / clip.num_frames
        note = f"  ({previous / mean:.2f}x better)" if previous else ""
        print(f"  N={count:<3d} {mean:.4f}s{note}")
        previous = mean


if __name__ == "__main__":
    main()
