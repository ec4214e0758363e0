"""``optimize_kernel`` reproduces the retired ``vectorize_kernel``, bit for bit.

The facade used to carry a second end-to-end path for the default task
(``decide_kernel`` → ``vectorize_kernel``) with its own loop extraction and
embedding call.  The literals below are what that path returned at the
commit before it was deleted — per-loop ``(index, VF, IF)``, ``cycles``,
``baseline_cycles``, ``compile_seconds`` and the SHA-1 of the annotated
source — so the surviving path is pinned to the same answers.
"""

import hashlib

from repro.core.framework import NeuroVectorizer, TrainingConfig
from repro.datasets.kernels import LoopKernel
from repro.datasets.llvm_suite import llvm_vectorizer_suite

REDUCTION_SOURCE = """
float a[2048], b[2048];
float work() {
    float s = 0;
    for (int i = 0; i < 2048; i++) {
        s += a[i] * b[i];
    }
    return s;
}
"""

STREAM_SOURCE = """
float x[2048], y[2048];
void scale(float alpha) {
    for (int i = 0; i < 2048; i++) {
        y[i] = alpha * x[i];
    }
}
"""

#: ``vectorize_kernel`` over the LLVM suite under ``NeuroVectorizer.default()``:
#: SHA-1 of all 25 rows, and the first two spelled out.
LLVM_DIGEST = "bb2d084566dcb38f47eac40c62dea35c1564dbc9"
LLVM_HEAD = [
    ("sum_reduction_int", ((0, 4, 2),), 1114.3, 1114.3, 0.05808,
     "3938733265d1276745ea755c135d5896bffa877f"),
    ("sum_reduction_float", ((0, 4, 2),), 2573.5, 2573.5, 0.05808,
     "30bbc0013326650ac67aa6d9cb19fd6daff907a8"),
]

#: The same rows for two tiny seed-0 trained frameworks.
SINGLE_TASK_ROWS = [
    ("work", ((0, 8, 16),), 605.3, 1293.5, 0.09952,
     "c72126afc2731fc1bd7359f7ccfc14678ba3a8a3"),
    ("stream", ((0, 8, 16),), 320.4, 854.8, 0.09552000000000001,
     "95e555dd1bc984b68a7438cb63fa21ecc4996eeb"),
]
JOINT_ROWS = [
    ("work", ((0, 8, 2),), 654.5, 1293.5, 0.05808,
     "c8f9532b25091acc2ac7790c7612d5c808bbd5d9"),
    ("stream", ((0, 8, 2),), 432.4, 854.8, 0.05408,
     "32e1648b2470bcf2ee2e72a9af734d9b8eeab7c4"),
]


def tiny_kernels():
    return [
        LoopKernel(name="work", source=REDUCTION_SOURCE, function_name="work"),
        LoopKernel(name="stream", source=STREAM_SOURCE, function_name="scale"),
    ]


def row(result):
    assert result.task == "vectorization"
    return (
        result.kernel_name,
        tuple((index, *action) for index, action in sorted(result.decisions.items())),
        result.cycles,
        result.baseline_cycles,
        result.compile_seconds,
        hashlib.sha1(result.transformed_source.encode()).hexdigest(),
    )


def trained_rows(**config):
    kernels = tiny_kernels()
    framework, _ = NeuroVectorizer.train(
        kernels,
        TrainingConfig(learning_rate=1e-3, pretrain_epochs=0, seed=0, **config),
    )
    with framework:
        return [row(framework.optimize_kernel(kernel)) for kernel in kernels]


def test_default_framework_on_the_llvm_suite():
    framework = NeuroVectorizer.default()
    rows = [row(framework.optimize_kernel(k)) for k in llvm_vectorizer_suite()]
    assert rows[:2] == LLVM_HEAD
    assert len(rows) == 25
    assert hashlib.sha1(repr(rows).encode()).hexdigest() == LLVM_DIGEST


def test_single_task_trained_framework():
    assert (
        trained_rows(task="vectorization", rl_total_steps=24, rl_batch_size=12)
        == SINGLE_TASK_ROWS
    )


def test_joint_trained_framework_decides_with_its_primary_task():
    # A joint framework's raw PolicyAgent has no task; the default-task
    # path must pin it to the primary one before the policy will act.
    assert (
        trained_rows(
            tasks=["vectorization", "unrolling"], rl_total_steps=48, rl_batch_size=24
        )
        == JOINT_ROWS
    )
