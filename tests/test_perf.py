"""Complexity-envelope smoke tests.

Doubling the job count must grow each builder's runtime monotonically and
stay inside the envelope implied by its asymptotic cost (about 4x for the
quadratic builders, about 8x for the cubic one, with a factor-2 band).
Only the upper edges are asserted: at desk sizes the vectorized quadratic
builders are dominated by per-iteration overhead and legitimately scale
below their asymptotic ratio.
"""
import statistics
import time

from robust_sched import ds1_params, generate, pm, pr, pre


def median_seconds(fn, small, large, reps=5):
    """Median wall time of ``reps`` builds on each instance. The small and
    large builds alternate, so a burst of machine noise lands on both."""
    samples = ([], [])
    for _ in range(reps):
        for inst, times in zip((small, large), samples):
            started = time.perf_counter()
            fn(inst)
            times.append(time.perf_counter() - started)
    return statistics.median(samples[0]), statistics.median(samples[1])


def test_doubling_jobs_stays_inside_the_envelopes():
    small = generate(ds1_params(150, 5), seed=2)
    large = generate(ds1_params(300, 5), seed=2)
    for fn in (pm, pr, pre):
        fn(small)
        fn(large)  # warm up

    for fn, cap in ((pm, 8.0), (pr, 8.0), (pre, 16.0)):
        t_small, t_large = median_seconds(fn, small, large)
        assert t_large > t_small, f"{fn.__name__} did not grow with n"
        ratio = t_large / t_small
        assert ratio <= cap, f"{fn.__name__} doubling ratio {ratio:.1f} > {cap}"

    # the cubic builder's element work dominates, so its ratio is also
    # bounded from below by the band
    t_small, t_large = median_seconds(pre, small, large)
    assert t_large / t_small >= 4.0, "pre scales suspiciously gently"
