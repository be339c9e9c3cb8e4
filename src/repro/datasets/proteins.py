"""Synthetic protein-style benchmarks (D&D, PROTEINS of Table 7).

Protein graphs in the originals connect amino acids / secondary-structure
elements; the two classes (enzyme vs. non-enzyme) differ in global fold
organisation rather than local chemistry.  The shared modular generator
(:mod:`repro.datasets.modular`) mirrors that: a protein is a chain of dense
secondary-structure blocks, and enzymes (class 1) fold back on themselves
through long-range block contacts while non-enzymes stay elongated —
with matched per-class size/density/cycle statistics so only the
*module-level* contact pattern separates the classes.

Node features encode a noisy 3-state secondary-structure type per block
plus sparse noise columns, weakly informative on their own.
"""

from __future__ import annotations

from .modular import ModularGraphConfig, generate_modular_dataset

#: Protein-flavoured configurations matched (scaled) to Table 7.
#: D&D graphs stay the largest, as in the original statistics.
ProteinConfig = ModularGraphConfig

PROTEIN_CONFIGS = {
    "dd": ModularGraphConfig(num_graphs=120, modules=(6, 10),
                             module_size=(6, 10), p_in=0.5,
                             extra_contacts=(3, 7), local_contacts=(0, 2),
                             num_features=20, num_module_types=3,
                             type_noise=0.1, type0_rate=(0.2, 0.5)),
    "proteins": ModularGraphConfig(num_graphs=160, modules=(4, 7),
                                   module_size=(5, 8), p_in=0.55,
                                   extra_contacts=(3, 6),
                                   local_contacts=(0, 1), num_features=16,
                                   num_module_types=3, type_noise=0.1,
                                   type0_rate=(0.2, 0.5)),
}


#: The shared builder under its protein-family name.
generate_protein_dataset = generate_modular_dataset
