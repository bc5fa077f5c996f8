"""Training an Allegro-lite foundation model and fine-tuning it for excited states.

Demonstrates the XS-NNQMD machine-learning workflow of the paper:

1. generate synthetic multi-fidelity training data (two "codes" whose total
   energies differ by an affine transformation),
2. unify them with total energy alignment (TEA, the Allegro-FM recipe),
3. train a ground-state Allegro-lite model (optionally with sharpness-aware
   minimisation, the Allegro-Legato recipe),
4. fine-tune a copy on excited-state reference data,
5. run MD with the mixed GS/XS calculator (paper Eq. 4) and report the
   force errors of every stage.

Run with:  python examples/train_allegro_lite.py
"""

from __future__ import annotations

import numpy as np

from repro.md import AtomsSystem, LennardJones, MorsePotential, VelocityVerlet
from repro.nn import AllegroLiteModel, TotalEnergyAlignment, Trainer, rattle_dataset
from repro.nn.dataset import ConfigurationDataset, Configuration
from repro.xsnn import ExcitedStateMixer, finetune_excited_state_model


def build_seed(rng: np.random.Generator) -> AtomsSystem:
    lat = 5.26
    base = np.array([[i, j, k] for i in range(2) for j in range(2) for k in range(2)], dtype=float) * lat
    extra = np.concatenate([base + [lat / 2, lat / 2, 0], base + [lat / 2, 0, lat / 2],
                            base + [0, lat / 2, lat / 2]])
    positions = np.vstack([base, extra]) + 0.1 * rng.standard_normal((32, 3))
    return AtomsSystem(positions, np.array(["Ar"] * 32, dtype=object), np.array([2 * lat] * 3))


def main() -> None:
    rng = np.random.default_rng(7)
    seed = build_seed(rng)
    gs_truth = LennardJones(cutoff=5.0)
    xs_truth = MorsePotential(depth=0.2, a=1.2, r0=3.6, cutoff=5.0)

    # 1-2. Two fidelities of ground-state data, unified by TEA.
    print("generating multi-fidelity training data and aligning with TEA ...")
    high = rattle_dataset(seed, gs_truth, 24, 0.08, rng, fidelity="pbe")
    low = ConfigurationDataset()
    for config in high:
        low.add(Configuration(atoms=config.atoms, energy=0.9 * config.energy - 0.11 * config.atoms.n_atoms,
                              forces=0.9 * config.forces, fidelity="lda"))
    tea = TotalEnergyAlignment(reference_fidelity="pbe")
    tea.fit({"pbe": high, "lda": low}, paired_reference={"lda": high})
    print(f"  TEA alignment residual: {tea.alignment_residual(low, high):.2e} eV/atom")
    unified = ConfigurationDataset(list(high) + list(tea.align(low)))

    # 3. Train the ground-state foundation model (SAM / Allegro-Legato recipe).
    print("training the ground-state Allegro-lite model (SAM enabled) ...")
    gs_model = AllegroLiteModel(species=["Ar"], cutoff=5.0, num_basis=8, hidden=(16, 16), rng=rng)
    trainer = Trainer(gs_model, learning_rate=0.02, batch_size=6, use_sam=True, sam_rho=0.05, rng=rng)
    train_set, valid_set = unified.split(0.8, rng)
    history = trainer.train(train_set, epochs=25, validation=valid_set)
    print(f"  validation force RMSE: {history.validation_force_rmse[-1]:.4f} eV/A "
          f"({gs_model.num_weights} weights)")

    # 4. Fine-tune the excited-state model on XS reference data.
    print("fine-tuning the excited-state model ...")
    xs_data = rattle_dataset(seed, xs_truth, 20, 0.08, rng, fidelity="naqmd")
    xs_model, xs_history = finetune_excited_state_model(gs_model, xs_data, epochs=25,
                                                        learning_rate=0.02, rng=rng)
    print(f"  XS training loss: {xs_history.train_loss[0]:.3e} -> {xs_history.train_loss[-1]:.3e}")

    # 5. Run MD with the mixed calculator at 30% excitation.
    print("running MD with the mixed GS/XS calculator (w = 0.3) ...")
    mixer = ExcitedStateMixer(gs_model, xs_model, uniform_weight=0.3)
    atoms = seed.copy()
    atoms.set_temperature(50.0, rng)
    integrator = VelocityVerlet(mixer, dt=2.0)
    energies = []
    for _ in range(50):
        integrator.step(atoms)
        energies.append(integrator.potential_energy(atoms) + atoms.kinetic_energy())
    print(f"  100 fs of mixed-surface MD: total-energy drift "
          f"{abs(energies[-1] - energies[0]):.4f} eV, final T = {atoms.temperature():.0f} K")


if __name__ == "__main__":
    main()
