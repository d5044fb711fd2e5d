"""Train on the synthetic kinship graph and predict held-out family links.

Uses a scaled-down graph so the whole run takes well under a minute. The
full-size experiment (104 entities, 300 epochs) lives in the acceptance
suite; this is the same pipeline end to end: generate, train, evaluate with
the filtered protocol, then complete a few queries by hand.
"""

import numpy as np

from transgcn import TrainConfig, evaluate, generate_kinship, known_triple_set, train
from transgcn.encoder import encode_arrays
from transgcn.evaluator import degree_bucket_report
from transgcn.kg import build_index

kg = generate_kinship(seed=0, founder_couples=3, valid_size=30, test_size=30)
print(f"kinship graph: {kg.num_entities} entities, {kg.num_relations} relations, "
      f"{len(kg.train)}/{len(kg.valid)}/{len(kg.test)} triples")

config = TrainConfig(
    assumption="translation", layers=1, dim=16, epochs=120, lr=0.01,
    gamma=2.0, norm="l2", batch=64, eval_every=20, seed=0,
)
checkpoint = train(kg, config)
print(f"best validation MRR {checkpoint.best_valid_mrr:.4f} "
      f"at epoch {checkpoint.epoch}")

index = build_index(kg)
entities, relations = encode_arrays(checkpoint.state, index)
report = evaluate(kg, "test", entities, relations, config.assumption, norm=config.norm)
print(f"test MRR {report.mrr:.4f}  hits@1 {report.hits1:.4f}  "
      f"hits@3 {report.hits3:.4f}  hits@10 {report.hits10:.4f}")

print("\nrank quality by train degree of the predicted entity:")
for row in degree_bucket_report(report, index):
    lo, hi, n, mrr = row["min_degree"], row["max_degree"], row["queries"], row["mrr"]
    print(f"  degree [{lo},{hi}): {n:3d} queries, MRR {mrr:.4f}")

print("\nhand-completing three test queries (filtered, tail side):")
known = known_triple_set(kg)
for h, r, t in kg.test[:3].tolist():
    est = entities[h] + relations[r]
    scores = -np.sqrt(np.square(est - entities).sum(axis=1))
    order = np.argsort(-scores, kind="stable")
    shown, true_rank, position = [], None, 0
    for cand in order:
        c = int(cand)
        if c != t and (h, r, c) in known:
            continue  # another true completion, filtered out
        position += 1
        if c == t:
            true_rank = position
        if len(shown) < 3:
            shown.append(kg.entity_names[c])
        if true_rank is not None and len(shown) == 3:
            break
    query = f"{kg.entity_names[h]} {kg.relation_names[r]} ?"
    print(f"  {query:28s} top: {', '.join(shown)}  "
          f"(true {kg.entity_names[t]} at rank {true_rank})")
