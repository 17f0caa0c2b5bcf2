"""Per-symbol rate across horizons for a stationary Markov source.

For a stationary, consistent source the per-symbol block rate settles as the
horizon grows; the solver exposes the trend without asserting the limit.
Short horizons overpay because the reproduction has less past to lean on.
The solver's passes run over the source's one-symbol memory window rather
than the whole source history, which keeps horizon 10 within a few seconds.
"""
import numpy as np

from causalrd import binary_symmetric_markov, rate_limit_estimate

HAMMING = 1.0 - np.eye(2)

print("=== 0.3-flip binary Markov source, target distortion 0.1 ===")
horizons = [1, 2, 3, 4, 5, 6, 8, 10]
rates = rate_limit_estimate(lambda h: binary_symmetric_markov(0.3, h),
                            HAMMING, 0.1, horizons)
print(f"  {'stages':>7} {'rate/symbol (nats)':>20} {'drop':>10}")
prev = None
for h, r in zip(horizons, rates):
    drop = "" if prev is None else f"{prev - r:10.6f}"
    print(f"  {h:7d} {r:20.9f} {drop:>10}")
    prev = r

tail = sum(abs(b - a) for a, b in zip(rates[2:], rates[3:]))
print(f"\ntotal variation beyond three stages: {tail:.4f} nats")
print("The sequence decreases and flattens: the memory the encoder can")
print("exploit saturates at the source's own memory length.")
