"""
Hyperparameter effects on retrieval and classification
======================================================

Desk-scale version of the classic ablations: sweep the loss-balance weight
eta, the quantization weight beta, and the code length, then watch MAP and
overall accuracy respond. eta=0 trains the classifier alone, eta=1 the
similarity loss alone; beta=0 removes the pull toward the +-1 corners.

    python3 demos/hyperparameter_study.py        (takes ~half a minute)
"""

from jointhash import (
    Hyperparams,
    TrainConfig,
    encode,
    encode_database,
    evaluate,
    synth_dataset,
    train,
    train_test_split,
)


def score(eta, beta, bits, seed=0):
    dataset = synth_dataset(classes=10, per_class=100, dim=64,
                            separation=3.0, seed=seed)
    train_set, test_set = train_test_split(dataset, 0.2, seed=seed)
    hyper = Hyperparams(eta=eta, beta=beta, lr=3e-4, code_bits=bits,
                        batch_size=32, epochs=100, seed=seed)
    params, _ = train(train_set, TrainConfig(hyper))
    table = encode_database(params, train_set)
    codes, predicted = encode(params, test_set.features)
    report = evaluate(table, codes, test_set.labels,
                      query_predicted=predicted)
    return report.map, report.oa


print("eta sweep (beta=25, 16 bits):")
for eta in (0.0, 0.2, 0.5, 1.0):
    m, oa = score(eta, 25.0, 16)
    print(f"  eta={eta:<4} MAP={m:.4f} OA={oa:.4f}")

print("\nbeta sweep (eta=0.2, 16 bits):")
for beta in (0.0, 5.0, 25.0, 100.0):
    m, oa = score(0.2, beta, 16)
    print(f"  beta={beta:<6} MAP={m:.4f} OA={oa:.4f}")

print("\ncode length sweep (eta=0.2, beta=25):")
for bits in (16, 32, 48, 64):
    m, oa = score(0.2, 25.0, bits)
    print(f"  K={bits:<3} MAP={m:.4f} OA={oa:.4f}")

print("\nthe joint setting (eta around 0.2, beta at 25) keeps both numbers "
      "high;\nthe endpoints give up either the classifier (eta=1) or code "
      "compactness (beta=0).")
