"""Command-line interface to the WFAsic reproduction.

Eleven subcommands cover the common flows:

* ``generate`` — write a synthetic ``.seq`` input set (a paper-named set
  or custom length/error parameters);
* ``align`` — run a ``.seq`` file through the accelerated SoC flow or a
  CPU baseline, printing scores/CIGARs and the cycle accounting;
* ``batch`` — the parallel batch alignment engine: shard a ``.seq`` file
  (or a generated workload) across worker processes with result caching,
  emitting JSON/TSV results plus throughput counters.  ``--trace``
  writes a Perfetto-loadable Chrome trace of the run and ``--metrics``
  a run manifest (config, git revision, dataset fingerprint, metrics
  snapshot) — see ``docs/observability.md``;
* ``serve`` — the always-on alignment service: a long-running NDJSON
  socket server feeding every client's requests through a shared
  micro-batching scheduler into one long-lived engine (protocol and
  admission-control contract in ``docs/serving.md``);
* ``submit`` — the scripting client for a running ``serve`` instance:
  submit a pairs file (or one inline pair) and print the responses;
* ``fleet`` — multi-chip capacity planning and design-space exploration:
  ``fleet plan`` inverts the model ("X pairs/s within Y mm² and Z watts
  → chip count + configuration", simulation-verified) and ``fleet
  sweep`` walks the sections × k_max × chip-count grid into a
  Pareto-frontier artifact (the source of every number in
  ``docs/fleet.md``);
* ``metrics`` — pretty-print the metrics snapshot inside a manifest (or
  a bare snapshot file) written by ``batch --metrics``;
* ``report`` — the ASIC (§5.2) or FPGA (§5.3) physical summary of a
  configuration;
* ``stats`` — summarise a ``.seq`` file (realised error profile) and
  run the Eq. 5 preflight against a configuration;
* ``verify`` — a §5.1-style differential campaign;
* ``lint`` — the wfalint domain static-analysis pass (delegates to
  ``python -m tools.wfalint``; needs a repository checkout — see
  ``docs/static-analysis.md``).

The README's command-reference section is generated from the parser by
:func:`format_cli_reference` (``tests/test_cli.py`` pins the sync).

Installed as ``repro-wfasic`` (see ``pyproject.toml``); also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from .align import DEFAULT_PENALTIES, AffinePenalties
from .engine import (
    BatchAlignmentEngine,
    BatchReport,
    EngineConfig,
    backend_names,
    merge_batch_reports,
)
from .obs import (
    MetricsRegistry,
    RunManifest,
    SchemaError,
    Tracer,
    format_metrics,
    install_tracer,
    set_registry,
    validate_manifest,
    validate_metrics_snapshot,
)
from .reporting import format_table
from .workloads import (
    PairGenerator,
    input_set_names,
    iter_pair_chunks,
    make_input_set,
    read_pairs_file,
    read_seq_file,
    stream_pairs,
    write_seq_file,
)

if TYPE_CHECKING:
    from .serve import ServeConfig

__all__ = ["main", "build_parser", "format_cli_reference"]


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The engine-configuration flags shared by ``batch`` and ``serve``."""
    parser.add_argument(
        "--backend", choices=backend_names(), default="batched"
    )
    parser.add_argument("-j", "--workers", type=int, default=1)
    parser.add_argument("--chunk-size", type=int, default=16)
    parser.add_argument("--cache-size", type=int, default=4096)
    parser.add_argument(
        "--backtrace", action="store_true", help="recover CIGARs"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="raise on the first per-pair error instead of isolating it",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-chunk timeout on the parallel path (0 disables)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="chunk resubmissions after a timeout or lost worker",
    )
    parser.add_argument(
        "--penalties",
        metavar="X,O,E",
        default=None,
        help="gap-affine penalties as mismatch,gap_open,gap_extend",
    )
    parser.add_argument(
        "--band",
        type=int,
        default=None,
        metavar="DIAGONALS",
        help="adaptive wavefront band width (band-capable backends "
        "only; a dead band falls back to exact alignment)",
    )


def _engine_config_from_args(args: argparse.Namespace) -> EngineConfig:
    """An :class:`EngineConfig` from the shared engine flags."""
    return EngineConfig(
        backend=args.backend,
        workers=args.workers,
        chunk_size=args.chunk_size,
        penalties=_parse_penalties(args.penalties),
        backtrace=args.backtrace,
        cache_size=args.cache_size,
        strict=args.strict,
        chunk_timeout=args.timeout if args.timeout > 0 else None,
        max_chunk_retries=args.retries,
        band_width=args.band,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wfasic",
        description="WFAsic (ICPP 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic .seq input set")
    gen.add_argument("output", help="output .seq path")
    gen.add_argument("-n", "--num-pairs", type=int, default=10)
    group = gen.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--set", dest="named_set", choices=input_set_names(), help="paper input set"
    )
    group.add_argument("--length", type=int, help="custom nominal read length")
    gen.add_argument("--error-rate", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)

    aln = sub.add_parser("align", help="align a .seq file")
    aln.add_argument("input", help="input .seq path")
    aln.add_argument(
        "--engine",
        choices=("accel", "cpu-scalar", "cpu-vector"),
        default="accel",
    )
    aln.add_argument("--backtrace", action="store_true", help="recover CIGARs")
    aln.add_argument("--aligners", type=int, default=1)
    aln.add_argument("--parallel-sections", type=int, default=64)
    aln.add_argument("--quiet", action="store_true", help="summary only")

    bat = sub.add_parser("batch", help="parallel batch alignment engine")
    bat.add_argument(
        "input",
        nargs="?",
        help="input path — .seq, FASTA or FASTQ, autodetected "
        "(omit with --generate)",
    )
    bat.add_argument(
        "--generate",
        type=int,
        metavar="LENGTH",
        help="generate a synthetic workload of this read length instead",
    )
    bat.add_argument("-n", "--num-pairs", type=int, default=200)
    bat.add_argument("--error-rate", type=float, default=0.05)
    bat.add_argument("--seed", type=int, default=0)
    bat.add_argument(
        "--long-read",
        action="store_true",
        help="with --generate: the ONT-like indel-heavy long-read "
        "profile (10-100 kbp)",
    )
    bat.add_argument(
        "--stream-chunk",
        type=int,
        default=None,
        metavar="PAIRS",
        help="stream the input file through the engine this many pairs "
        "at a time (bounded memory; incompatible with --metrics)",
    )
    _add_engine_args(bat)
    bat.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage wall-time breakdown after the summary",
    )
    bat.add_argument("--format", choices=("tsv", "json"), default="tsv")
    bat.add_argument(
        "-o", "--output", help="write results to this file (default stdout)"
    )
    bat.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Perfetto-loadable Chrome trace of the run",
    )
    bat.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a run manifest (config, git, dataset fingerprint, metrics)",
    )

    srv = sub.add_parser(
        "serve", help="always-on alignment service (micro-batching)"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=7878, help="TCP port (0 = ephemeral)"
    )
    _add_engine_args(srv)
    srv.add_argument(
        "--batch-window",
        type=float,
        default=2.0,
        metavar="MS",
        help="micro-batch accumulation window in milliseconds "
        "(0 dispatches every request alone)",
    )
    srv.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="requests per dispatched batch (a full batch closes its "
        "window early)",
    )
    srv.add_argument(
        "--queue-depth",
        type=int,
        default=1024,
        help="bounded admission queue; beyond it requests are rejected "
        "queue_full with a retry_after_ms hint",
    )
    srv.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="MS",
        help="default per-request deadline for requests that carry none",
    )
    srv.add_argument(
        "--instances",
        type=int,
        default=1,
        help="engine instances behind the shared queue (up to this many "
        "batches in flight at once); extra instances pay off only with "
        "-j 2 or more, as with -j 1 they share one interpreter",
    )
    srv.add_argument(
        "--ready-file",
        metavar="PATH",
        help="write 'host port' here once the socket is bound (scripting)",
    )
    srv.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Perfetto-loadable Chrome trace of the session",
    )
    srv.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the session's metrics snapshot (JSON) on shutdown",
    )

    sbm = sub.add_parser(
        "submit", help="submit pairs to a running serve instance"
    )
    sbm.add_argument(
        "input",
        nargs="?",
        help=".seq/FASTA/FASTQ pairs file (omit with --pair or --stats)",
    )
    sbm.add_argument(
        "--pair",
        nargs=2,
        metavar=("PATTERN", "TEXT"),
        help="one inline pair instead of a file",
    )
    sbm.add_argument("--host", default="127.0.0.1")
    sbm.add_argument("--port", type=int, default=7878)
    sbm.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="MS",
        help="per-request deadline in milliseconds",
    )
    sbm.add_argument(
        "--stats",
        action="store_true",
        help="print the server's stats document (JSON) instead of aligning",
    )
    sbm.add_argument("--format", choices=("tsv", "json"), default="tsv")
    sbm.add_argument(
        "-o", "--output", help="write results to this file (default stdout)"
    )

    flt = sub.add_parser(
        "fleet", help="multi-chip capacity planning and design-space sweep"
    )
    flt.add_argument(
        "mode",
        choices=("plan", "sweep"),
        help="plan: minimal fleet meeting a rate within budgets; "
        "sweep: Pareto sweep over sections x k_max x chip count",
    )
    flt.add_argument(
        "--pairs-per-sec",
        type=float,
        default=None,
        metavar="RATE",
        help="plan: required throughput on the workload (required)",
    )
    flt.add_argument(
        "--area",
        type=float,
        default=None,
        metavar="MM2",
        help="plan: total silicon budget in mm2 (default unconstrained)",
    )
    flt.add_argument(
        "--power",
        type=float,
        default=None,
        metavar="WATTS",
        help="plan: total power budget in W (default unconstrained)",
    )
    flt.add_argument(
        "--no-host",
        action="store_true",
        help="plan: area budget covers bare accelerators, not full SoCs "
        "(one Sargantana per chip)",
    )
    flt.add_argument(
        "--set",
        dest="named_set",
        choices=input_set_names(),
        default="100-10%",
        help="workload input set",
    )
    flt.add_argument("-n", "--num-pairs", type=int, default=32)
    flt.add_argument(
        "--batch-pairs",
        type=int,
        default=4,
        help="pairs per routed micro-batch (batches are the unit of "
        "cross-chip overlap)",
    )
    flt.add_argument(
        "--max-chips",
        type=int,
        default=16,
        help="plan: chip-count search ceiling",
    )
    flt.add_argument(
        "--sections",
        type=int,
        nargs="+",
        default=None,
        metavar="PS",
        help="parallel-section grid values (default 16 32 64 128)",
    )
    flt.add_argument(
        "--k-max",
        type=int,
        nargs="+",
        default=None,
        metavar="K",
        help="k_max grid values (default 512 3998)",
    )
    flt.add_argument(
        "--chips",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="sweep: chip-count grid values (default 1 2 4)",
    )
    flt.add_argument(
        "-o",
        "--output",
        help="write the JSON artifact (plan or sweep document) here",
    )
    flt.add_argument(
        "--trace",
        metavar="PATH",
        help="plan: write a Chrome trace of the verification run with "
        "per-chip lanes",
    )

    met = sub.add_parser(
        "metrics", help="pretty-print a manifest's metrics snapshot"
    )
    met.add_argument("input", help="manifest (or bare snapshot) JSON path")
    met.add_argument(
        "--filter",
        metavar="SUBSTRING",
        default=None,
        help="only show metrics whose name contains this substring",
    )

    rep = sub.add_parser("report", help="physical summary of a configuration")
    rep.add_argument("--what", choices=("asic", "fpga"), default="asic")
    rep.add_argument("--aligners", type=int, default=1)
    rep.add_argument("--parallel-sections", type=int, default=64)
    rep.add_argument("--k-max", type=int, default=3998)

    st = sub.add_parser("stats", help="summarise a .seq input set")
    st.add_argument("input", help="input .seq path")
    st.add_argument("--k-max", type=int, default=3998)
    st.add_argument("--margin", type=float, default=1.1)

    ver = sub.add_parser("verify", help="differential verification campaign")
    ver.add_argument("-n", "--num-pairs", type=int, default=30)
    ver.add_argument("--max-len", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)

    lnt = sub.add_parser(
        "lint", help="run the wfalint static-analysis pass (checkout only)"
    )
    lnt.add_argument(
        "wfalint_args",
        nargs=argparse.REMAINDER,
        metavar="ARGS",
        help="forwarded to `python -m tools.wfalint` (try `-- --list-rules`)",
    )

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.named_set:
        pairs = make_input_set(args.named_set, args.num_pairs, seed_offset=args.seed)
        label = args.named_set
    else:
        gen = PairGenerator(
            length=args.length,
            error_rate=args.error_rate,
            seed=args.seed,
            max_text_length=args.length,
        )
        pairs = gen.batch(args.num_pairs)
        label = f"{args.length}bp-{args.error_rate:.0%}"
    count = write_seq_file(args.output, pairs)
    print(f"wrote {count} pairs ({label}) to {args.output}")
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    from .soc import Soc
    from .wfasic import WfasicConfig

    pairs = read_seq_file(args.input)
    if not pairs:
        print("input file holds no pairs", file=sys.stderr)
        return 1
    config = WfasicConfig(
        num_aligners=args.aligners,
        parallel_sections=args.parallel_sections,
        backtrace=args.backtrace,
    )
    soc = Soc(config)
    if args.engine == "accel":
        out = soc.run_accelerated(pairs, backtrace=args.backtrace)
        scores, cycles = out.scores, out.total_cycles
        failures = sum(1 for ok in out.success.values() if not ok)
        if not args.quiet:
            for p in pairs:
                line = f"pair {p.pair_id}: score={scores[p.pair_id]}"
                if not out.success[p.pair_id]:
                    line += "  [UNSUPPORTED/FAILED]"
                elif args.backtrace and out.cigars[p.pair_id] is not None:
                    line += f"  cigar={out.cigars[p.pair_id].compact()}"
                print(line)
        print(
            f"{len(pairs)} pairs, {failures} failures, "
            f"{cycles} cycles total ({args.engine}, "
            f"{args.aligners}x{args.parallel_sections}PS, "
            f"backtrace={'on' if args.backtrace else 'off'})"
        )
    else:
        out = soc.run_cpu(pairs, vector=args.engine == "cpu-vector")
        if not args.quiet:
            for p in pairs:
                print(f"pair {p.pair_id}: score={out.scores[p.pair_id]}")
        print(f"{len(pairs)} pairs, {out.cycles} CPU cycles ({args.engine})")
    return 0


def _parse_penalties(spec: str | None) -> AffinePenalties:
    if spec is None:
        return DEFAULT_PENALTIES
    try:
        x, o, e = (int(part) for part in spec.split(","))
        return AffinePenalties(mismatch=x, gap_open=o, gap_extend=e)
    except ValueError as exc:
        raise SystemExit(f"invalid --penalties {spec!r}: {exc}")


def _outcome_rows(pairs, outcomes) -> list[dict]:
    """Result rows for the ``batch`` output document, in input order."""
    return [
        {
            "pair_id": pair.pair_id,
            "score": outcome.score,
            "success": outcome.success,
            "cigar": outcome.cigar,
            "ok": outcome.ok,
            "error_kind": outcome.error_kind,
            "error_msg": outcome.error_msg,
        }
        for pair, outcome in zip(pairs, outcomes)
    ]


@contextmanager
def _interruptible() -> Iterator[None]:
    """Route SIGTERM to :class:`KeyboardInterrupt` while the block runs.

    Streamed runs are long-lived; a supervisor's SIGTERM must take the
    same orderly exit as Ctrl-C — through the engine's context-manager
    teardown (pool join) and the partial
    report — instead of killing the process mid-dispatch.  Signal
    handlers only install on the main thread; elsewhere (tests calling
    ``main()`` from a worker thread) this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_batch(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.generate is None):
        print(
            "batch needs an input file or --generate (not both)",
            file=sys.stderr,
        )
        return 2
    if args.long_read and args.generate is None:
        print("--long-read needs --generate LENGTH", file=sys.stderr)
        return 2
    if args.stream_chunk is not None:
        if args.input is None:
            print(
                "--stream-chunk streams a file input, not --generate",
                file=sys.stderr,
            )
            return 2
        if args.metrics:
            print(
                "--stream-chunk is incompatible with --metrics: the run "
                "manifest fingerprints the whole dataset, which streaming "
                "never holds",
                file=sys.stderr,
            )
            return 2
        if args.stream_chunk < 1:
            print("--stream-chunk must be >= 1", file=sys.stderr)
            return 2

    pairs: list = []
    if args.stream_chunk is None:
        if args.input is not None:
            try:
                pairs = read_pairs_file(args.input)
            except ValueError as exc:
                print(f"cannot read input: {exc}", file=sys.stderr)
                return 1
        else:
            try:
                if args.long_read:
                    gen = PairGenerator.long_read(
                        length=args.generate,
                        error_rate=args.error_rate,
                        seed=args.seed,
                        max_text_length=args.generate,
                    )
                else:
                    gen = PairGenerator(
                        length=args.generate,
                        error_rate=args.error_rate,
                        seed=args.seed,
                        max_text_length=args.generate,
                    )
            except ValueError as exc:
                print(f"invalid workload: {exc}", file=sys.stderr)
                return 2
            pairs = gen.batch(args.num_pairs)
        if not pairs:
            print("input file holds no pairs", file=sys.stderr)
            return 1

    try:
        config = _engine_config_from_args(args)
    except ValueError as exc:
        print(f"invalid engine configuration: {exc}", file=sys.stderr)
        return 2

    # Observability: a fresh registry scopes the snapshot to this run
    # (the manifest's counters then reconcile exactly with the report);
    # the tracer is process-wide while the batch runs, restored after.
    if args.metrics or args.trace:
        set_registry(MetricsRegistry())
    tracer = previous_tracer = None
    if args.trace:
        tracer = Tracer()
        previous_tracer = install_tracer(tracer)
    interrupted = False
    try:
        with BatchAlignmentEngine(config) as engine:
            if args.stream_chunk is not None:
                # Bounded-memory ingestion: one long-lived engine (its
                # cache and pool persist), one batch per streamed chunk,
                # each report folded into one running summary as it lands.
                # Ctrl-C / SIGTERM mid-stream must neither leak the
                # engine's worker pool nor drop the chunks already
                # aligned: the interrupt is caught *inside* the engine's
                # context manager (teardown still runs) and the partial
                # merged report is printed below.
                rows: list[dict] = []
                running = None
                stream_start = time.perf_counter()
                with _interruptible():
                    try:
                        for chunk in iter_pair_chunks(
                            stream_pairs(args.input), args.stream_chunk
                        ):
                            result = engine.align_batch(chunk)
                            running = (
                                result.report
                                if running is None
                                else merge_batch_reports([running, result.report])
                            )
                            rows += _outcome_rows(chunk, result.outcomes)
                    except KeyboardInterrupt:
                        interrupted = True
                if running is None:
                    if interrupted:
                        print("interrupted before any chunk completed",
                              file=sys.stderr)
                        return 130
                    print("input file holds no pairs", file=sys.stderr)
                    return 1
                # The session's true wall span, not the per-batch sum —
                # the sum would drop the streaming/reading gaps between
                # batches and overstate pairs/s.
                report = merge_batch_reports(
                    [running],
                    wall_seconds=time.perf_counter() - stream_start,
                )
            else:
                result = engine.align_batch(pairs)
                report = result.report
                rows = _outcome_rows(pairs, result.outcomes)
    except (TypeError, ValueError) as exc:
        # Strict mode, a malformed streamed file, or a type error fails
        # the whole batch up front.
        print(f"batch failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            install_tracer(previous_tracer)

    if tracer is not None:
        tracer.write(args.trace)
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if args.metrics:
        source = (
            args.input
            if args.input is not None
            else (
                f"generated:length={args.generate},n={args.num_pairs},"
                f"error={args.error_rate},seed={args.seed}"
            )
        )
        manifest = RunManifest.for_run(
            command=["repro-wfasic"] + list(getattr(args, "argv_", [])),
            config=asdict(config),
            pairs=pairs,
            dataset_source=source,
            seed=args.seed if args.input is None else None,
            report=report.as_dict(),
        )
        manifest.write(args.metrics)
        print(f"wrote run manifest to {args.metrics}", file=sys.stderr)

    if args.format == "json":
        doc = json.dumps(
            {"summary": report.as_dict(), "results": rows}, indent=2
        )
    else:
        lines = ["pair_id\tscore\tsuccess\tcigar"]
        lines += [
            f"{r['pair_id']}\t{r['score']}\t{int(r['success'])}\t"
            f"{r['cigar'] or '.'}"
            for r in rows
        ]
        doc = "\n".join(lines)

    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    # The human-readable counters always go to stdout so the engine's
    # throughput is visible whatever the results format.
    print(report.describe())
    if args.profile:
        print(report.describe_profile())
    if interrupted:
        # The partial results above are real; the exit code still says
        # the stream never reached its end.
        print(
            f"interrupted: results cover the {report.num_pairs} pairs "
            "whose chunks completed",
            file=sys.stderr,
        )
        return 130
    # Per-pair fault isolation keeps the batch alive, but the exit code
    # still tells automation that some pairs errored.
    return 1 if report.errors else 0


async def _serve_session(
    config: EngineConfig,
    serve_config: ServeConfig,
    args: argparse.Namespace,
) -> BatchReport | None:
    """Run one serve session until SIGINT/SIGTERM; the merged report."""
    import asyncio

    from .serve import AlignmentServer

    server = AlignmentServer(
        config, serve_config, host=args.host, port=args.port
    )
    await server.start()
    host, port = server.address
    loop = asyncio.get_running_loop()
    if args.ready_file:
        # File I/O off the loop: the ready-file may live on slow/remote
        # storage, and a stalled write here would freeze every
        # connection the freshly started server is accepting.
        await loop.run_in_executor(
            None,
            functools.partial(
                Path(args.ready_file).write_text,
                f"{host} {port}\n",
                encoding="ascii",
            ),
        )
    print(f"serving on {host}:{port}", file=sys.stderr, flush=True)
    # The loop holds only weak references to tasks: a fire-and-forget
    # shutdown task could be collected mid-flight and never run, so the
    # handler parks it in a set pruned by its done callback.
    shutdown_tasks: set[asyncio.Task[None]] = set()

    def _request_shutdown() -> None:
        task = loop.create_task(server.shutdown())
        shutdown_tasks.add(task)
        task.add_done_callback(shutdown_tasks.discard)

    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, _request_shutdown)
    try:
        await server.wait_closed()
    finally:
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.remove_signal_handler(sig)
    assert server.batcher is not None
    return server.batcher.session_report()


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import ServeConfig

    try:
        config = _engine_config_from_args(args)
        serve_config = ServeConfig(
            batch_window=args.batch_window / 1e3,
            max_batch=args.max_batch,
            max_queue_depth=args.queue_depth,
            default_deadline_ms=args.deadline,
            instances=args.instances,
        )
    except ValueError as exc:
        print(f"invalid serve configuration: {exc}", file=sys.stderr)
        return 2
    # A fresh registry scopes the session's metrics to this serve run;
    # the scheduler publishes to the process registry by default.
    registry = MetricsRegistry()
    set_registry(registry)
    tracer = previous_tracer = None
    if args.trace:
        tracer = Tracer()
        previous_tracer = install_tracer(tracer)
    try:
        report = asyncio.run(_serve_session(config, serve_config, args))
    finally:
        if tracer is not None:
            install_tracer(previous_tracer)
    if tracer is not None:
        tracer.write(args.trace)
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if args.metrics:
        with open(args.metrics, "w", encoding="ascii") as fh:
            json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote metrics snapshot to {args.metrics}", file=sys.stderr)
    if report is not None:
        print(report.describe())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    if not args.stats and (args.input is None) == (args.pair is None):
        print(
            "submit needs a pairs file or --pair (not both), or --stats",
            file=sys.stderr,
        )
        return 2
    from .serve import ServeClient

    try:
        client = ServeClient(args.host, args.port)
    except (ConnectionError, OSError) as exc:
        print(
            f"cannot connect to {args.host}:{args.port}: {exc} "
            "(is `repro-wfasic serve` running?)",
            file=sys.stderr,
        )
        return 1
    with client:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.pair is not None:
            pairs = [(args.pair[0], args.pair[1])]
        else:
            try:
                pairs = [
                    (p.pattern, p.text) for p in read_pairs_file(args.input)
                ]
            except ValueError as exc:
                print(f"cannot read input: {exc}", file=sys.stderr)
                return 1
            if not pairs:
                print("input file holds no pairs", file=sys.stderr)
                return 1
        responses = client.align_many(pairs, deadline_ms=args.deadline)

    if args.format == "json":
        doc = json.dumps({"results": responses}, indent=2)
    else:
        lines = ["id\tok\tscore\tsuccess\tcigar\terror"]
        for r in responses:
            lines.append(
                f"{r.get('id')}\t{int(bool(r.get('ok')))}\t"
                f"{r.get('score') if r.get('score') is not None else '.'}\t"
                f"{int(bool(r.get('success')))}\t{r.get('cigar') or '.'}\t"
                f"{r.get('error_kind') or '.'}"
            )
        doc = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    return 0 if all(r.get("ok") for r in responses) else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    # A fresh registry scopes fleet_* counters to this invocation (the
    # candidate-rating runs publish too; the artifact is the product).
    set_registry(MetricsRegistry())
    if args.mode == "plan":
        return _cmd_fleet_plan(args)
    return _cmd_fleet_sweep(args)


def _cmd_fleet_plan(args: argparse.Namespace) -> int:
    from .fleet import FleetBudget, FleetConfig, FleetScheduler, plan_capacity
    from .wfasic import configs_within_budget

    if args.pairs_per_sec is None:
        print("fleet plan needs --pairs-per-sec", file=sys.stderr)
        return 2
    try:
        budget = FleetBudget(
            pairs_per_sec=args.pairs_per_sec,
            area_mm2=args.area,
            power_w=args.power,
            include_host=not args.no_host,
        )
        configs = None
        if args.sections or args.k_max:
            configs = configs_within_budget(
                area_budget_mm2=args.area,
                power_budget_w=args.power,
                parallel_sections=tuple(args.sections or (16, 32, 64, 128)),
                k_max_values=tuple(args.k_max or (512, 3998)),
                include_host=not args.no_host,
            )
        plan = plan_capacity(
            budget,
            workload=args.named_set,
            num_pairs=args.num_pairs,
            configs=configs,
            batch_pairs=args.batch_pairs,
            max_chips=args.max_chips,
        )
    except ValueError as exc:
        print(f"invalid plan request: {exc}", file=sys.stderr)
        return 2
    print(plan.describe())
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            json.dump(plan.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote plan to {args.output}", file=sys.stderr)
    if args.trace:
        if not plan.feasible or plan.config is None:
            print("no trace written: plan infeasible", file=sys.stderr)
        else:
            # Re-run just the verification fleet under the tracer so the
            # trace holds one clean run (rating runs would overlap it).
            tracer = Tracer()
            previous = install_tracer(tracer)
            try:
                FleetScheduler(
                    FleetConfig.uniform(
                        plan.chips, plan.config, batch_pairs=args.batch_pairs
                    )
                ).run(make_input_set(args.named_set, args.num_pairs))
            finally:
                install_tracer(previous)
            tracer.write(args.trace)
            print(f"wrote trace to {args.trace}", file=sys.stderr)
    return 0 if plan.feasible else 1


def _cmd_fleet_sweep(args: argparse.Namespace) -> int:
    from .fleet import SweepGrid, run_sweep, validate_fleet_sweep

    try:
        grid = SweepGrid(
            parallel_sections=tuple(args.sections or (16, 32, 64, 128)),
            k_max_values=tuple(args.k_max or (512, 3998)),
            chip_counts=tuple(args.chips or (1, 2, 4)),
        )
        doc = run_sweep(
            grid,
            input_set=args.named_set,
            num_pairs=args.num_pairs,
            batch_pairs=args.batch_pairs,
        )
    except ValueError as exc:
        print(f"invalid sweep request: {exc}", file=sys.stderr)
        return 2
    validate_fleet_sweep(doc)
    rows = [
        [
            f"{p['chips']} x 1x{p['parallel_sections']}PS",
            p["k_max"],
            round(p["soc_area_mm2"], 2),
            round(p["power_w"] * 1e3),
            f"{p['pairs_per_second']:,.0f}",
            round(p["energy_per_pair_j"] * 1e9, 1),
            "*" if p["on_frontier"] else ("FAIL" if p["failed_pairs"] else ""),
        ]
        for p in doc["points"]
    ]
    print(
        format_table(
            ["fleet", "k_max", "SoC mm2", "mW", "pairs/s", "nJ/pair", ""],
            rows,
            title=f"fleet sweep on {doc['workload']['input_set']} "
            f"({doc['workload']['num_pairs']} pairs); "
            f"* = Pareto frontier",
        )
    )
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote sweep artifact to {args.output}", file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, UnicodeDecodeError) as exc:
        print(f"cannot read metrics file: {exc}", file=sys.stderr)
        return 1
    if isinstance(doc, dict) and doc.get("kind") == "run_manifest":
        try:
            validate_manifest(doc)
        except SchemaError as exc:
            print(f"invalid manifest: {exc}", file=sys.stderr)
            return 1
        run = doc["run"]
        git = run.get("git") or {}
        revision = git.get("revision", "unknown")[:12]
        if git.get("dirty"):
            revision += "+dirty"
        dataset = run["dataset"]
        print(f"command : {' '.join(run['command'])}")
        print(
            f"run     : revision {revision}, seed {run.get('seed')}, "
            f"dataset {dataset['fingerprint'][:12]} "
            f"({dataset['num_pairs']} pairs, {dataset['total_bases']} bases)"
        )
        snapshot = doc.get("metrics") or {}
    else:
        try:
            validate_metrics_snapshot(doc)
        except SchemaError as exc:
            print(f"invalid metrics snapshot: {exc}", file=sys.stderr)
            return 1
        snapshot = doc
    if args.filter:
        snapshot = {
            name: payload
            for name, payload in snapshot.items()
            if args.filter in name
        }
    print(format_metrics(snapshot))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .wfasic import WfasicConfig, asic_report
    from .wfasic.fpga_model import U280, fpga_report

    config = WfasicConfig(
        num_aligners=args.aligners,
        parallel_sections=args.parallel_sections,
        k_max=args.k_max,
        backtrace=False,
    )
    if args.what == "asic":
        rep = asic_report(config)
        rows = [
            ["memory macros", rep.inventory.total_macros],
            ["on-chip memory (MB)", round(rep.memory_mb, 3)],
            ["area (mm2)", round(rep.total_area_mm2, 2)],
            ["frequency (GHz)", rep.frequency_hz / 1e9],
            ["power (mW)", round(rep.power_w * 1000)],
            ["max score (Eq. 6)", config.max_score],
        ]
        print(format_table(["quantity", "value"], rows, title="ASIC report (GF22FDX)"))
    else:
        rep = fpga_report(config, U280)
        rows = [
            ["LUTs", f"{rep.luts} ({rep.lut_utilisation:.0%})"],
            ["FFs", rep.ffs],
            ["BRAM36", f"{rep.bram36:.0f} ({rep.bram_utilisation:.0%})"],
            ["fits U280", rep.fits],
            ["frequency (MHz)", rep.frequency_hz / 1e6],
        ]
        print(format_table(["resource", "value"], rows, title="FPGA report (Alveo U280)"))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    pairs = read_seq_file(args.input)
    if not pairs:
        print("input file holds no pairs", file=sys.stderr)
        return 1
    from .wfasic import WfasicConfig
    from .workloads import summarise_pairs
    from .workloads.profile import preflight

    stats = summarise_pairs(pairs)
    print(stats.describe())
    config = WfasicConfig(k_max=args.k_max, backtrace=False)
    ok = preflight(
        config,
        int(stats.mean_pattern_length),
        stats.mean_error_rate,
        margin=args.margin,
    )
    print(
        f"Eq. 5 preflight vs Score_max={config.max_score} "
        f"(margin {args.margin}x): {'SUPPORTED' if ok else 'AT RISK'}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import EquivalenceChecker

    checker = EquivalenceChecker(seed=args.seed)
    report = checker.campaign(count=args.num_pairs, max_len=args.max_len)
    print(
        f"checked {report.pairs_checked} pairs against the SWG oracle, "
        f"software WFA and the accelerator backtrace path"
    )
    if report.ok:
        print("all engines agree (penalties "
              f"x={DEFAULT_PENALTIES.mismatch} o={DEFAULT_PENALTIES.gap_open} "
              f"e={DEFAULT_PENALTIES.gap_extend})")
        return 0
    for mismatch in report.mismatches[:10]:
        print(f"MISMATCH pair {mismatch.pair_id} [{mismatch.kind}]: {mismatch.detail}")
    return 1


def _find_wfalint_root() -> Path | None:
    """The checkout root holding ``tools/wfalint``, or ``None``.

    ``tools/`` is repository tooling, not part of the installed package,
    so the ``lint`` subcommand only works from (or under) a checkout:
    the search walks up from the working directory, then from this
    file's own location (covering ``pip install -e`` layouts, where
    ``src/repro`` sits two levels below the repository root).
    """
    candidates = [Path.cwd(), *Path.cwd().parents]
    candidates += list(Path(__file__).resolve().parents)
    for base in candidates:
        if (base / "tools" / "wfalint" / "__init__.py").is_file():
            return base
    return None


def _cmd_lint(args: argparse.Namespace) -> int:
    root = _find_wfalint_root()
    if root is None:
        print(
            "lint: tools/wfalint not found — run inside a repository "
            "checkout (or use `python -m tools.wfalint` from one)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root))
    try:
        from tools.wfalint.cli import main as wfalint_main
    finally:
        sys.path.remove(str(root))
    forwarded = list(args.wfalint_args)
    if forwarded[:1] == ["--"]:
        forwarded = forwarded[1:]
    # Anchor wfalint at the checkout root unless the caller chose one;
    # its default targets (the CI scope under `<root>`) then work from
    # any directory.
    if "--root" not in forwarded:
        forwarded += ["--root", str(root)]
    return int(wfalint_main(forwarded))


def format_cli_reference() -> str:
    """Markdown reference for every subcommand, rendered from the parser.

    The README embeds this between ``CLI-REFERENCE`` markers (see
    ``tools/sync_readme.py``); ``tests/test_cli.py`` fails when the two
    drift.  Rendering walks the parser's actions directly instead of
    ``format_help()`` so the output is identical across Python versions
    (argparse's help formatter changes between releases).
    """
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    help_by_name = {a.dest: a.help for a in sub._choices_actions}
    lines = [f"Commands of `{parser.prog}` (also `python -m repro.cli`):", ""]
    for name, sub_parser in sub.choices.items():
        lines.append(f"#### `{name}` — {help_by_name.get(name, '')}")
        lines.append("")
        lines.append("| argument | default | description |")
        lines.append("| --- | --- | --- |")
        for action in sub_parser._actions:
            if action.dest == "help":
                continue
            lines.append(_format_action_row(action))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _format_action_row(action: argparse.Action) -> str:
    """One markdown table row for one argparse action."""
    if action.option_strings:
        invocation = ", ".join(action.option_strings)
        if action.nargs != 0:
            invocation += f" {_action_metavar(action)}"
    else:
        invocation = _action_metavar(action)
        if action.nargs == "?":
            invocation = f"[{invocation}]"
    if (
        action.default is None
        or action.default is False
        or action.default is argparse.SUPPRESS
    ):
        default = "—"
    else:
        default = f"`{action.default}`"
    description = action.help or ""
    if action.choices is not None:
        choices = ", ".join(f"`{c}`" for c in action.choices)
        description = f"{description} (one of {choices})" if description else (
            f"one of {choices}"
        )
    return f"| `{invocation}` | {default} | {description} |"


def _action_metavar(action: argparse.Action) -> str:
    if action.metavar is not None:
        return action.metavar
    if action.choices is not None:
        return "CHOICE"
    return (action.dest if not action.option_strings else action.dest.upper())


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    # The raw argv is recorded in run manifests (`batch --metrics`).
    args.argv_ = argv
    handlers = {
        "generate": _cmd_generate,
        "align": _cmd_align,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "fleet": _cmd_fleet,
        "metrics": _cmd_metrics,
        "report": _cmd_report,
        "stats": _cmd_stats,
        "verify": _cmd_verify,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
