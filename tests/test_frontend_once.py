"""Each distinct source text is parsed once per process.

Pins the record-per-text frontend memo: every consumer of a kernel's text
shares one ``parse_source`` call whatever filename it passes, the paper's
decide → inject pragma → measure loop costs exactly one (the original: the
annotated text is output only and is never parsed), a kernel is one memo
entry whose loop lists leave with its AST, and concurrent misses end up
sharing one record.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

import repro.frontend.cache as cache_module
from repro.core.loop_extractor import extract_loops
from repro.core.pipeline import CompileAndMeasure
from repro.core.pragma_injector import inject_pragmas
from repro.datasets.kernels import LoopKernel
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.frontend.cache import FrontendCache, frontend_cache
from repro.frontend.parser import parse_source
from repro.tasks import get_task

SCALE_SOURCE = """
float a[4096], b[4096];
void scale(int n, float alpha) {
    for (int i = 0; i < n; i++) {
        b[i] = alpha * a[i];
    }
}
"""


def scale_kernel(n: int = 1024, source: str = SCALE_SOURCE) -> LoopKernel:
    return LoopKernel(name="scale", source=source, function_name="scale", bindings={"n": n})


@pytest.fixture
def cache(monkeypatch) -> FrontendCache:
    """A fresh process-wide memo for one test."""
    frontend_cache()  # the env snapshot a swapped-in instance is checked against
    fresh = FrontendCache()
    monkeypatch.setattr(cache_module, "_GLOBAL_CACHE", fresh)
    return fresh


@pytest.fixture
def parsed(monkeypatch, cache):
    """Filenames of every ``parse_source`` call, wherever the name was bound
    (what the benchmark tracer's ``frontend.parse`` span counts)."""
    filenames = []

    def counted(source, filename="<source>", defines=None):
        filenames.append(filename)
        return parse_source(source, filename=filename, defines=defines)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is parse_source:
                monkeypatch.setattr(module, attribute, counted)
    return filenames


def test_every_consumer_of_a_text_shares_one_parse(parsed, cache):
    kernel = scale_kernel()
    extract_loops(kernel.source)
    extract_loops(kernel.source, function_name="scale", filename="elsewhere.c")
    unit = cache.parse(kernel.source, filename=f"{kernel.name}.c")
    CompileAndMeasure().lower_kernel(kernel)
    inject_pragmas(kernel.source, {0: (4, 2)}, function_name="scale")
    assert parsed == ["<source>"]
    # The memoised unit keeps the first caller's label (diagnostics only).
    assert unit.filename == "<source>"
    assert len(cache) == 1
    assert cache.stats.misses == 1


@pytest.mark.parametrize("task_name", ["vectorization", "unrolling"])
def test_decide_measure_apply_parses_original_and_annotated_only(parsed, cache, task_name):
    task = get_task(task_name)
    kernel = scale_kernel()
    pipeline = CompileAndMeasure()
    sites = task.decision_sites(kernel)
    pipeline.measure_baseline(kernel)
    decisions = {site.index: tuple(menu[1] for menu in task.menus) for site in sites}
    application = task.apply(pipeline, kernel, decisions)
    assert application.transformed_source != kernel.source
    # The annotated text is output only: the application is priced on the
    # original's IR, so only the original is parsed.
    assert len(parsed) == 1
    assert len(cache) == 1


def test_a_kernel_is_one_entry_and_eviction_takes_its_loop_lists(cache):
    first, second = scale_kernel(), scale_kernel(source=SCALE_SOURCE.replace("4096", "512"))
    extract_loops(first.source)
    extract_loops(first.source, function_name="scale")
    CompileAndMeasure().lower_kernel(first)
    assert len(cache) == 1
    loop = weakref.ref(extract_loops(first.source)[0])
    cache.set_capacity(1)
    assert loop() is not None and cache.stats.evictions == 0
    extract_loops(second.source)
    assert len(cache) == 1 and cache.stats.evictions == 1
    gc.collect()
    assert loop() is None


def test_parse_failures_are_not_cached_and_name_the_caller(parsed, cache):
    from repro.frontend.errors import ParseError

    for filename in ("one.c", "two.c"):
        with pytest.raises(ParseError) as raised:
            cache.parse("void f( {", filename=filename)
        assert raised.value.location.filename == filename
    assert parsed == ["one.c", "two.c"]
    assert len(cache) == 0


def test_concurrent_misses_on_one_text_share_one_record(monkeypatch, cache):
    threads = 8
    barrier = threading.Barrier(threads)

    def held_parse(source, filename="<source>", defines=None):
        try:
            barrier.wait(timeout=2.0)  # every miss is in flight before any finishes
        except threading.BrokenBarrierError:
            pass  # a memo that lets one miss through at a time is fine too
        return parse_source(source, filename=filename, defines=defines)

    monkeypatch.setattr(cache_module, "parse_source", held_parse)
    units, loops = [], []

    def work(index):
        units.append(cache.parse(SCALE_SOURCE, filename=f"t{index}.c"))
        loops.append(extract_loops(SCALE_SOURCE)[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(index,)) for index in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(units) == threads and len({id(unit) for unit in units}) == 1
    assert len({id(loop) for loop in loops}) == 1
    assert len(cache) == 1
    assert cache.stats.hits + cache.stats.misses == 2 * threads


def test_two_hundred_kernels_fit_the_default_capacity(cache):
    kernels = list(generate_synthetic_dataset(SyntheticDatasetConfig(count=200, seed=11)))
    task = get_task("vectorization")
    pipeline = CompileAndMeasure()
    for kernel in kernels:
        extract_loops(kernel.source)
        task.decision_sites(kernel)
        pipeline.lower_kernel(kernel)
    assert cache.capacity == 512
    assert cache.stats.evictions == 0
    assert cache.stats.misses == len({kernel.source for kernel in kernels}) == len(cache)
