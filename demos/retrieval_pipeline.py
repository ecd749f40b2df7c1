"""
End-to-end retrieval and classification
========================================

Train the joint hash/classifier model on a synthetic cluster dataset, build
the packed code table, then answer a few queries and score the whole test
set. Run from the repository root:

    python3 demos/retrieval_pipeline.py
"""

from jointhash import (
    Hyperparams,
    TrainConfig,
    encode,
    encode_database,
    evaluate,
    rank_all,
    synth_dataset,
    train,
    train_test_split,
)

# ---------------------------------------------------------------------------
# A stand-in for real image features: 10 Gaussian clusters in 64 dimensions.
# Each cluster plays the role of one semantic class; separation 3.0 keeps
# them clearly distinguishable, like fc7 features of visually distinct scenes.
dataset = synth_dataset(classes=10, per_class=100, dim=64, separation=3.0,
                        seed=0)
train_set, test_set = train_test_split(dataset, test_fraction=0.2, seed=0)
print(f"database: {len(train_set)} items, queries: {len(test_set)}")

# ---------------------------------------------------------------------------
# Train 16-bit codes with the joint objective. eta balances the pairwise
# similarity loss against the classifier cross-entropy; beta pulls the
# continuous hash-layer outputs onto the +-1 corners they will be quantized to.
hyper = Hyperparams(eta=0.2, beta=25.0, lr=3e-4, code_bits=16, batch_size=32,
                    epochs=100, seed=0)
params, trace = train(train_set, TrainConfig(hyper))
print(f"loss per epoch: {trace[0].total:.2f} (first) "
      f"-> {trace[-1].total:.2f} (last)")

# ---------------------------------------------------------------------------
# Freeze the model and hash every database item into a packed code table.
table = encode_database(params, train_set)
print(f"code table: {len(table)} codes x {table.code_bits} bits "
      f"({table.codes.shape[1]} words each)")

# ---------------------------------------------------------------------------
# Encode the held-out set into packed codes and predicted labels. Answer its
# first query: rank by Hamming distance, read off the neighbors with their
# true and predicted labels.
query_codes, predicted = encode(params, test_set.features)
ranking = rank_all(query_codes[0], table, 5)
print(f"\nquery with true label {test_set.labels[0]}, top 5 neighbors:")
for rank in range(5):
    print(f"  #{rank + 1}: id={ranking.ids[rank]:4d} "
          f"distance={ranking.distances[rank]:2d} "
          f"TL={ranking.labels[rank]} PL={ranking.predicted[rank]}")

# ---------------------------------------------------------------------------
# Score the full held-out query set: MAP for retrieval quality, overall
# accuracy for the classifier head.
report = evaluate(table, query_codes, test_set.labels,
                  query_predicted=predicted)
print(f"\nMAP over {report.num_queries} queries: {report.map:.4f}")
print(f"classification accuracy:        {report.oa:.4f}")
print(f"precision@10 / recall@10:       {report.precision_at[9]:.4f} / "
      f"{report.recall_at[9]:.4f}")
