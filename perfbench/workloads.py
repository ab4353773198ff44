"""Benchmark inputs, set-up and the workloads, with their output checks.

All inputs derive from the seed: FashionMNIST-shaped 28x28 uint8 images of
10 classes, each a smooth class template plus pixel noise, so that a few
training steps already lift accuracy well above chance. Every workload
drives the package through its public entry points only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import statistics
import time

import numpy as np

from weightgen import cli, dataio, training

N_TRAIN = 1024
N_TEST = 256
IMAGE_SIZE = 28
N_CLASSES = 10
# Default lr 0.002 needs far more steps than a 1024-sample epoch to leave
# chance on the synthetic task; 0.02 gets there within one epoch.
LR = 0.02
# Per-epoch accuracy on the training set looks at this many samples.
EVAL_TRAIN = 256
# Accuracy floor: three times chance on 10 classes.
ACC_FLOOR = 0.3
EVAL_BATCH = 256
GENERATED = (1, 2)
# B_i = 25 reaches min(C_in, k*k) = 25 on layers 1 and 2, so the intra
# level is skipped there and the degenerate plan path runs.
EXPLORE_BI = (2, 25)
EXPLORE_BC = (8,)
# Batch 32 gives each point 32 steps, enough for its batch-norm running
# statistics to settle before the accuracy is measured.
EXPLORE_BATCH = 32
EXPLORE_INIT_ITERS = 1000


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def param_hash(model) -> str:
    """SHA-256 over every parameter and batch-norm buffer, in layer order."""
    h = hashlib.sha256()
    for name, p in model.named_params():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.value).tobytes())
    for layer in model.layers:
        for buf in ("running_mean", "running_var"):
            if hasattr(layer, buf):
                h.update(np.ascontiguousarray(getattr(layer, buf)).tobytes())
    return h.hexdigest()


def check_trained(result, what: str) -> None:
    """Finite losses and parameters, and final test accuracy above the floor."""
    for row in result.metrics:
        for key in ("loss_kd", "loss_ort", "train_acc", "test_acc"):
            check(math.isfinite(float(row[key])), f"{what}: {key} is not finite")
    for name, p in result.model.named_params():
        check(bool(np.isfinite(p.value).all()), f"{what}: parameter {name} is not finite")
    acc = result.metrics[-1]["test_acc"]
    check(acc > ACC_FLOOR, f"{what}: test_acc {acc:.3f} <= {ACC_FLOOR}")


def synthetic_split(rng: np.random.Generator, templates: np.ndarray, n: int):
    labels = rng.integers(0, N_CLASSES, n)
    noise = rng.standard_normal((n, IMAGE_SIZE, IMAGE_SIZE))
    pixels = np.rint(128.0 + 80.0 * templates[labels] + 20.0 * noise)
    return np.clip(pixels, 0, 255).astype(np.uint8), labels


def idx_round_trip(pixels, labels, directory: str, split: str):
    """Write a split under its FashionMNIST file names with dataio.save_idx,
    read it back with dataio.load_fashion_split and check the round trip."""
    ds = dataio.LabeledDataset(
        images=pixels[:, None].astype(np.float64) / 255.0,
        labels=labels.astype(np.int64), split=split)
    images_name, labels_name = dataio.FASHION_FILES[split]
    dataio.save_idx(ds, os.path.join(directory, images_name),
                    os.path.join(directory, labels_name))
    loaded = dataio.load_fashion_split(directory, split)
    check(np.array_equal(np.rint(loaded.images[:, 0] * 255.0).astype(np.uint8), pixels),
          f"IDX round trip changed the {split} pixels")
    check(np.array_equal(loaded.labels, labels), f"IDX round trip changed the {split} labels")
    return loaded


def checkpoint_round_trip(path: str, result, epoch: int):
    """Save a trained model, load it back and check it is unchanged."""
    training.save_checkpoint(path, result.model, result.config, epoch=epoch)
    model, _, _ = training.load_checkpoint(path)
    check(param_hash(model) == param_hash(result.model),
          f"checkpoint round trip through {os.path.basename(path)} changed the model")
    return model


@dataclasses.dataclass
class Inputs:
    directory: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    teacher: object
    teacher_path: str
    teacher_hash: str


def setup(seed: int, directory: str) -> Inputs:
    """Synthetic data, IDX round trip, dense teacher training and its
    checkpoint round trip. Deterministic in the seed."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 28]))
    templates = np.kron(rng.standard_normal((N_CLASSES, 7, 7)), np.ones((4, 4)))
    train = idx_round_trip(*synthetic_split(rng, templates, N_TRAIN), directory, "train")
    test = idx_round_trip(*synthetic_split(rng, templates, N_TEST), directory, "test")
    cfg = training.TrainConfig(epochs=1, lr=LR, seed=seed, eval_train_samples=EVAL_TRAIN)
    result = training.train(cfg, train.images, train.labels, test.images, test.labels)
    check_trained(result, "teacher")
    teacher_path = os.path.join(directory, "teacher.npz")
    teacher = checkpoint_round_trip(teacher_path, result, cfg.epochs)
    return Inputs(directory, train.images, train.labels, test.images, test.labels,
                  teacher, teacher_path, param_hash(teacher))


class Distill:
    """Stage-2 distillation of the default arch with layers 1 and 2
    generated and stage 1 skipped, a checkpoint round trip of the student,
    then forward-only evaluation of student and teacher. One operation is
    all of that; its unit of work is the operation."""

    name = "distill"
    units_per_op = 1
    layers_fitted_per_op = 0

    def __init__(self, inputs: Inputs, seed: int, directory: str):
        self.inputs = inputs
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.cfg = training.TrainConfig(
            epochs=2, batch_size=64, lr=LR, seed=seed, generated=GENERATED,
            n_basis=2, n_cross=12, q_basis=8, q_coeff=8, q_mixer=8, init="random",
            eval_train_samples=EVAL_TRAIN)
        self.eval_x = np.concatenate([inputs.train_x, inputs.test_x])
        self.eval_y = np.concatenate([inputs.train_y, inputs.test_y])
        self.first_hash = None
        self.train_s: list[float] = []
        self.eval_s: list[float] = []
        self.test_acc: list[float] = []

    def run_op(self) -> float:
        inp = self.inputs
        start = time.perf_counter()
        result = training.train(self.cfg, inp.train_x, inp.train_y, inp.test_x, inp.test_y,
                                teacher=inp.teacher)
        trained = time.perf_counter()
        student = checkpoint_round_trip(os.path.join(self.directory, "student.npz"), result,
                                        self.cfg.epochs)
        saved = time.perf_counter()
        student_acc = training.evaluate(student, self.eval_x, self.eval_y, EVAL_BATCH)
        teacher_acc = training.evaluate(inp.teacher, self.eval_x, self.eval_y, EVAL_BATCH)
        end = time.perf_counter()
        check_trained(result, "distill")
        check(student_acc > ACC_FLOOR and teacher_acc > ACC_FLOOR,
              f"evaluate accuracy student {student_acc:.3f} teacher {teacher_acc:.3f}")
        digest = param_hash(result.model)
        if self.first_hash is None:
            self.first_hash = digest
        check(digest == self.first_hash, "same seed gave different student parameters")
        self.train_s.append(trained - start)
        self.eval_s.append(end - saved)
        self.test_acc.append(result.metrics[-1]["test_acc"])
        return end - start

    def report(self) -> list[tuple[str, float, str]]:
        trained = self.cfg.epochs * self.inputs.train_x.shape[0]
        evaluated = 2 * self.eval_x.shape[0]
        return [
            ("train_samples_per_s", trained / statistics.median(self.train_s), "1/s"),
            ("eval_samples_per_s", evaluated / statistics.median(self.eval_s), "1/s"),
            ("test_acc", min(self.test_acc), "fraction"),
        ]

    def digest(self) -> str | None:
        return self.first_hash


class Explore:
    """`weightgen explore` over B_i x B_c with l2 init and the shared
    teacher checkpoint, each point trained for one epoch. One operation is
    one CLI call; its unit of work is a grid point.

    The accuracy floor applies to the best point: a heavily compressed
    point may stay near chance after 32 steps without anything being wrong."""

    name = "explore"
    units_per_op = len(EXPLORE_BI) * len(EXPLORE_BC)
    layers_fitted_per_op = units_per_op * len(GENERATED)

    def __init__(self, inputs: Inputs, seed: int, directory: str):
        self.inputs = inputs
        self.out = os.path.join(directory, "grid")
        os.makedirs(directory, exist_ok=True)
        config = os.path.join(directory, "explore.json")
        with open(config, "w") as fh:
            json.dump({"eval_train_samples": EVAL_TRAIN}, fh)
        self.argv = [
            "explore", "--config", config, "--data", inputs.directory,
            "--teacher", inputs.teacher_path, "--out", self.out, "--seed", str(seed),
            "--generated", ",".join(map(str, GENERATED)),
            "--bi-list", ",".join(map(str, EXPLORE_BI)),
            "--bc-list", ",".join(map(str, EXPLORE_BC)),
            "--epochs", "1", "--batch-size", str(EXPLORE_BATCH), "--lr", str(LR),
            "--init", "l2", "--init-iters", str(EXPLORE_INIT_ITERS)]
        self.first = None
        self.point_s: list[float] = []
        self.test_acc: list[float] = []

    def run_op(self) -> float:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        elapsed = time.perf_counter() - start
        check(code == 0, f"weightgen explore exited with {code}")
        with open(os.path.join(self.out, "grid.json")) as fh:
            grid = json.load(fh)
        points = grid["points"]
        check(not grid["skipped"], f"grid skipped settings: {grid['skipped']}")
        check(len(points) == self.units_per_op,
              f"grid trained {len(points)} points, expected {self.units_per_op}")
        for p in points:
            check(all(math.isfinite(p[k]) and p[k] > 0 for k in ("r", "r_m")),
                  f"bad ratios at B_i={p['n_basis']} B_c={p['n_cross']}")
            check(0.0 <= p["accuracy"] <= 1.0, f"accuracy {p['accuracy']} outside [0, 1]")
        best = max(p["accuracy"] for p in points)
        check(best > ACC_FLOOR, f"best grid accuracy {best:.3f} <= {ACC_FLOOR}")
        check(bool(grid["pareto_front"]), "empty Pareto front")
        outcome = [(p["n_basis"], p["n_cross"], p["accuracy"], p["r_m"]) for p in points]
        if self.first is None:
            self.first = outcome
        check(outcome == self.first, "same seed gave a different grid result")
        self.test_acc.append(best)
        self.point_s.append(elapsed / self.units_per_op)
        return self.point_s[-1]

    def report(self) -> list[tuple[str, float, str]]:
        return [("explore_point_s", statistics.median(self.point_s), "s"),
                ("test_acc", min(self.test_acc), "fraction")]

    def digest(self) -> str | None:
        return None if self.first is None else hashlib.sha256(
            repr(self.first).encode()).hexdigest()


WORKLOADS = {cls.name: cls for cls in (Distill, Explore)}
