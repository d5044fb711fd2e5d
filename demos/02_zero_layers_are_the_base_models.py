"""With no convolution layers the model is plain TransE (or RotatE).

The encoder with layers=[] passes embeddings straight through, so scores are
exactly -||h + r - t|| (translation) or -||h o r - t|| (rotation). This demo
recomputes a handful of scores with one-line numpy formulas and shows the
difference is not just small, it is zero.
"""

import numpy as np

from transgcn import autodiff as ad
from transgcn.encoder import Assumption, ModelState, encode_arrays
from transgcn.kg import build_index
from transgcn.kinship import generate_kinship
from transgcn.objective import score_triples

kg = generate_kinship(seed=0, founder_couples=3, valid_size=20, test_size=20)
rng = np.random.default_rng(1)
d = 8

entity = rng.normal(size=(kg.num_entities, d))
relation = rng.normal(size=(kg.num_relations, d))
state = ModelState(
    assumption=Assumption.TRANSLATION,
    entity_embed=ad.tensor(entity.copy(), requires_grad=True),
    relation_params=ad.tensor(relation.copy(), requires_grad=True),
    layers=[],
)
ents, rels = encode_arrays(state, build_index(kg))

triples = kg.test[:5]
h, r, t = triples.T
model = score_triples(
    ad.tensor(ents), ad.tensor(rels), h, r, t, Assumption.TRANSLATION
).values.reshape(-1)

print("triple                                straight-line      encoder")
for k, (hk, rk, tk) in enumerate(triples.tolist()):
    plain = -np.abs(entity[hk] + relation[rk] - entity[tk]).sum()
    name = f"{kg.entity_names[hk]} {kg.relation_names[rk]} {kg.entity_names[tk]}"
    print(f"{name:38s}{plain:14.6f}{model[k]:14.6f}  equal={plain == model[k]}")
