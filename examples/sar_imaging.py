"""SAR image formation with accelerator chaining (Fig 12a's scenario).

The compiler's verified rewrite engine fuses the range interpolation
(RESMP) and azimuth FFT into a single PASS whose intermediate stays in
tile local memory, and proves the fusion legal; this script shows the
chain with the facts its certificate names and quantifies the gain
over separate invocations.

Run:  python examples/sar_imaging.py
"""

import numpy as np

from repro.apps import SarConfig, run_sar_baseline, run_sar_mealib
from repro.apps.sar import sar_source
from repro.compiler import DescriptorStep, FusedStep, translate
from repro.eval.figures import fig12


def main() -> None:
    cfg = SarConfig(side=128)
    translated = translate(sar_source(cfg))
    descriptors = [i for i in translated.items
                   if isinstance(i, DescriptorStep)]
    chain = descriptors[0].items[0]
    assert isinstance(chain, FusedStep) and not chain.looped
    print(f"SAR {cfg.side}x{cfg.side}: compiler chained "
          + " -> ".join(s.accel for s in chain.steps)
          + " into one PASS, keeping "
          + ", ".join(chain.intermediates) + " tile-local")
    fuse_facts = [f for f in chain.certificate.facts
                  if f.kind.startswith("fuse-")]
    assert fuse_facts and all(f.prover for f in fuse_facts)
    for fact in fuse_facts:
        print(f"  proved {fact.kind} by {fact.prover}")

    baseline = run_sar_baseline(cfg)
    mealib = run_sar_mealib(cfg)
    assert np.allclose(baseline.buffers["image"],
                       mealib.buffers["image"], rtol=2e-2, atol=2e-2)
    print("functional check: baseline == MEALib image  OK")

    print("\nhardware vs software chaining across image sizes "
          "(Fig 12a):")
    report = fig12(sides=(256, 512, 1024, 2048))
    for row in report["chaining"]:
        print(f"  {row['side']:5d}px  gain {row['gain']:.2f}x")
    print("hardware LOOP vs software loop of 128 FFTs (Fig 12b):")
    for row in report["looping"]:
        print(f"  {row['side']:5d}px  gain {row['gain']:.2f}x")


if __name__ == "__main__":
    main()
