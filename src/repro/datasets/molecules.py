"""Synthetic molecule-style benchmarks for graph classification (Table 7).

The TU datasets (NCI1, NCI109, MUTAG, Mutagenicity) need a download that is
unavailable offline, so each is replaced by a deterministic generator that
preserves what the paper's evaluation actually exercises: a class
distinction that is **structural and meso/macro-scale**, invisible to
per-node statistics.

A molecule is a chain of dense *functional groups* (rings with internal
chords, heteroatom clusters) joined by single bonds; "active" molecules
(class 1) carry intramolecular long-range contacts that fold the chain into
a compact cluster, while inactive ones (class 0) spend the same contact
budget between adjacent groups.  See :mod:`repro.datasets.modular` for the
exact construction and the anti-shortcut guarantees (matched node, edge,
degree and cycle statistics across classes).

Atom-type features one-hot the functional-group type with per-atom
corruption, so features alone cannot decide the class.
"""

from __future__ import annotations

from .modular import ModularGraphConfig, generate_modular_dataset

#: Molecule-flavoured configurations matched (scaled) to Table 7.  Feature
#: widths follow the originals (NCI1 has 37 atom types, MUTAG 7, ...).
MoleculeConfig = ModularGraphConfig

MOLECULE_CONFIGS = {
    "nci1": ModularGraphConfig(num_graphs=200, modules=(4, 6),
                               module_size=(4, 7), p_in=0.5,
                               extra_contacts=(3, 5), local_contacts=(0, 1),
                               num_features=37, num_module_types=4,
                               type_noise=0.2, decoration_rate=0.08,
                               type0_rate=(0.2, 0.5)),
    "nci109": ModularGraphConfig(num_graphs=200, modules=(4, 6),
                                 module_size=(4, 7), p_in=0.5,
                                 extra_contacts=(3, 5),
                                 local_contacts=(0, 1), num_features=38,
                                 num_module_types=4, type_noise=0.25,
                                 decoration_rate=0.08,
                                 type0_rate=(0.22, 0.48)),
    "mutag": ModularGraphConfig(num_graphs=188, modules=(3, 5),
                                module_size=(4, 6), p_in=0.55,
                                extra_contacts=(2, 4),
                                local_contacts=(0, 1), num_features=7,
                                num_module_types=3, type_noise=0.15,
                                decoration_rate=0.05,
                                type0_rate=(0.2, 0.5)),
    "mutagenicity": ModularGraphConfig(num_graphs=220, modules=(4, 7),
                                       module_size=(4, 6), p_in=0.5,
                                       extra_contacts=(3, 5),
                                       local_contacts=(0, 1),
                                       num_features=14,
                                       num_module_types=4, type_noise=0.25,
                                       decoration_rate=0.08,
                                       type0_rate=(0.22, 0.48)),
}


#: The shared builder under its molecule-family name.
generate_molecule_dataset = generate_modular_dataset
