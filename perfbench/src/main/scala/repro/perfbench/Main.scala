package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import repro.core.{LouvainOptions, LouvainResult}
import repro.graph.LocalGraph
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Benchmark harness: one workload per JVM.
  *
  *   --trace 0  end-to-end metrics of the untraced public entry point
  *   --trace 1  per-layer metrics from the traced replica of the driver
  *
  * The last line of standard output is the result object
  * `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0 only
  * when every clustering call passed its output check.
  */
object Main {

  private final case class Args(workload: String, seed: Option[Long], seconds: Double,
                                trace: Boolean, smoke: Boolean, outDir: Option[String],
                                gitSha: String, sourceHash: String)

  /** Graph builds per end-to-end run; `setup_s` is their median. */
  private val SetupReps = 3
  private val WarmUpSeconds = 3.0
  /** Untraced/traced call pairs in a traced run. */
  private val TracedReps = 3

  final case class Metric(name: String, value: Double, unit: String)

  private final case class Outcome(metrics: Seq[Metric], checker: Checker, notes: Seq[String],
                                   extra: Seq[(String, String)])

  def main(argv: Array[String]): Unit = {
    val args = try parseArgs(argv.toList) catch {
      case e: IllegalArgumentException =>
        System.err.println(s"perfbench: ${e.getMessage}")
        sys.exit(2)
    }
    val w       = Workloads.byName(args.workload)
    val seed    = args.seed.getOrElse(w.defaultSeed)
    val threads = Runtime.getRuntime.availableProcessors()
    val opts    = LouvainOptions(threads = threads)
    val gen: () => LocalGraph =
      if (args.smoke) () => w.generateSmoke(seed) else () => w.generate(seed)

    val out =
      if (args.trace) traced(w, gen, opts, args.seconds)
      else endToEnd(w, gen, opts, args.seconds)

    val chk     = out.checker
    val correct = chk.failed == 0
    val env = Seq(
      "workload"    -> Json.str(w.name),
      "seed"        -> seed.toString,
      "smoke"       -> args.smoke.toString,
      "trace"       -> args.trace.toString,
      "seconds"     -> Json.num(args.seconds),
      "git_sha"     -> Json.str(args.gitSha),
      "source_hash" -> Json.str(args.sourceHash),
      "nproc"       -> threads.toString,
      "threads"     -> w.effectiveThreads(opts).toString,
      "jdk"         -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "heap_max_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "gc"          -> Json.arr(ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq.map(b => Json.str(b.getName))),
    )
    val metricsJson = Json.obj(out.metrics.map(m =>
      m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))))
    val result = Json.obj(Seq(
      "correct"   -> correct.toString,
      "attempted" -> chk.attempted.toString,
      "failed"    -> chk.failed.toString,
      "metrics"   -> metricsJson,
    ))

    args.outDir.foreach { dir =>
      val f = new File(dir, s"${w.name}-seed$seed-trace${if (args.trace) 1 else 0}.json")
      f.getParentFile.mkdirs()
      val pw = new PrintWriter(f, "UTF-8")
      try pw.println(Json.obj(Seq(
        "env"      -> Json.obj(env),
        "result"   -> result,
        "problems" -> Json.arr(chk.problems.toSeq.map(Json.str)),
      ) ++ out.extra))
      finally pw.close()
    }

    out.notes.foreach(n => println(s"# $n"))
    chk.problems.take(10).foreach(p => println(s"# FAILED: $p"))
    println(s"# env ${Json.obj(env)}")
    println(result)
    System.out.flush()
    sys.exit(if (correct) 0 else 1)
  }

  // ---------------------------------------------------------------- runs ---

  /** Untraced end-to-end run: set-up repeated, warm-up, then timed calls for
    * `seconds`. Every call's output is checked.
    */
  private def endToEnd(w: Workload, gen: () => LocalGraph, opts: LouvainOptions,
                       seconds: Double): Outcome = {
    // Graph generation and the CSR build run on one thread.
    val setupRot = new CoreRotation(enabled = true)
    val setups   = ArrayBuffer.empty[Double]
    var g: LocalGraph = null
    for (_ <- 1 to SetupReps) {
      g = null
      setupRot.advance()
      val t0 = System.nanoTime()
      g = gen()
      setups += secondsSince(t0)
    }
    setupRot.release()
    val chk = new Checker(w, g)
    val rot = new CoreRotation(w.effectiveThreads(opts) == 1)
    warmUp(w, g, opts, chk, seconds)

    val samples = ArrayBuffer.empty[Checker.Sample]
    val t0 = System.nanoTime()
    while (secondsSince(t0) < seconds || chk.attempted == 0) {
      rot.advance()
      chk.run(w.cluster(g, opts))(identity).foreach(samples += _)
    }
    rot.release()

    val times         = samples.map(_.seconds).toSeq
    val (tail, tailP) = Stats.tail(times)
    val n             = times.length
    val metrics = Seq(
      Metric("cluster_s", Stats.median(times), "s"),
      Metric("cluster_s_tail", tail, "s"),
      Metric("objective", Stats.median(samples.map(_.objective).toSeq), "value"),
      Metric("setup_s", Stats.median(setups.toSeq), "s"),
      Metric("mem_x_input", Stats.median(samples.map(s =>
        s.result.retainedBytesAllLevels.toDouble / g.sizeInBytes).toSeq), "ratio"),
      Metric("ok_frac", (chk.attempted - chk.failed).toDouble / chk.attempted, "ratio"),
    ).filter(m => !m.value.isNaN)
    val notes = Seq(
      f"graph: n=${g.numVertices} m=${g.numEdges}; setups: ${setups.map(s => f"$s%.3f").mkString(", ")} s",
      s"cluster_s: median of $n timed calls (${chk.attempted} calls in all, warm-up included)",
      if (n >= Stats.TailMinSamples) f"cluster_s_tail: p$tailP%.1f of $n samples (10 samples beyond it)"
      else s"cluster_s_tail: maximum of $n samples (fewer than ${Stats.TailMinSamples}, so no percentile above the median has 10 beyond it)",
    )
    Outcome(metrics, chk, notes, Seq(
      "cluster_s_samples" -> Json.arr(times.map(Json.num)),
      "setup_s_samples"   -> Json.arr(setups.toSeq.map(Json.num)),
      "tail_percentile"   -> Json.num(tailP),
    ))
  }

  /** Traced run: untraced and traced calls interleaved, the CSR build timed on
    * the graph's own edge list, and the replica-fidelity check.
    */
  private def traced(w: Workload, gen: () => LocalGraph, opts: LouvainOptions,
                     seconds: Double): Outcome = {
    val g   = gen()
    val chk = new Checker(w, g)
    warmUp(w, g, opts, chk, seconds)

    // Each untraced/traced pair runs on one core, so trace.overhead compares
    // like with like.
    val rot      = new CoreRotation(w.effectiveThreads(opts) == 1)
    val untraced = ArrayBuffer.empty[Double]
    val calls    = ArrayBuffer.empty[TracedCall]
    for (_ <- 1 to TracedReps) {
      rot.advance()
      chk.run(w.cluster(g, opts))(identity).foreach(untraced += _.seconds)
      chk.run(TracedDriver.cluster(w, g, opts))(_.result).foreach(calls += _.value)
    }
    rot.release()

    // graph: CSR build on the graph's own edge list, materialised beforehand.
    val edges = g.undirectedEdges.toArray
    System.gc()
    val a0    = Probe.allocatedBytes
    val t0    = System.nanoTime()
    val built = LocalGraph.fromEdges(g.numVertices, edges.iterator)
    val buildS  = secondsSince(t0)
    val buildMb = (Probe.allocatedBytes - a0) / 1e6
    if (built.numEdges != g.numEdges ||
        math.abs(built.totalEdgeWeight - g.totalEdgeWeight) > 1e-9 * g.totalEdgeWeight)
      chk.fail(s"LocalGraph.fromEdges rebuilt m=${built.numEdges}, expected ${g.numEdges}")

    // Replica fidelity: bit-identical labelling wherever the engine is
    // deterministic — SEQ as run, PAR at one thread.
    val fidelity =
      if (w.deterministic) calls.headOption.map(c => chk.matchesReference(c.result.clusters))
      else {
        val one = opts.copy(threads = 1)
        for {
          pub <- chk.run(w.cluster(g, one))(identity)
          rep <- chk.run(TracedDriver.cluster(w, g, one))(_.result)
        } yield java.util.Arrays.equals(pub.result.clusters, rep.result.clusters)
      }
    fidelity match {
      case Some(true) => ()
      case Some(false) => chk.fail(s"traced replica's labelling differs from the ${w.engine.getClass.getSimpleName.stripSuffix("$")} entry point")
      case None        => chk.fail("fidelity check did not run: a clustering call failed")
    }

    if (calls.isEmpty || untraced.isEmpty) {
      chk.fail("no traced/untraced call completed")
      return Outcome(Nil, chk, Nil, Nil)
    }
    val tc = calls.sortBy(_.totalNs).apply(calls.length / 2) // median traced call
    val otherNs = tc.totalNs - tc.spanNs
    if (otherNs < 0) chk.fail(s"spans cover ${tc.spanNs} ns, more than the traced total ${tc.totalNs} ns")

    val threads = w.effectiveThreads(opts)
    def of(name: String) = tc.spans.filter(_.name == name)
    def wallS(name: String)   = of(name).map(_.wallNs).sum / 1e9
    def allocMb(name: String) = of(name).map(_.allocBytes).sum / 1e6
    def passes(name: String)  = of(name).map(_.passes).sum.toDouble
    def cpuUtil(name: String) = of(name).map(_.cpuNs).sum / 1e9 / (wallS(name) * threads)
    val edgesIn = of("compress").map(_.mIn).sum.toDouble

    val metrics = Seq(
      Metric("core.compress.s", wallS("compress"), "s"),
      Metric("core.compress.cpu_util", cpuUtil("compress"), "ratio"),
      Metric("core.compress.alloc_mb", allocMb("compress"), "MB"),
      Metric("core.compress.edges_in", edgesIn, "count"),
      Metric("core.compress.medges_per_s", edgesIn / 1e6 / wallS("compress"), "Medges/s"),
      Metric("core.best_moves.s", wallS("best_moves"), "s"),
      Metric("core.best_moves.cpu_util", cpuUtil("best_moves"), "ratio"),
      Metric("core.best_moves.passes", passes("best_moves"), "count"),
      Metric("core.best_moves.alloc_mb", allocMb("best_moves"), "MB"),
      Metric("core.refine.s", wallS("refine"), "s"),
      Metric("core.refine.passes", passes("refine"), "count"),
      Metric("core.normalize.s", wallS("normalize"), "s"),
      Metric("core.normalize.alloc_mb", allocMb("normalize"), "MB"),
      Metric("core.flatten.s", wallS("flatten"), "s"),
      Metric("core.levels", tc.result.numLevels.toDouble, "count"),
      Metric("core.driver_other.s", otherNs / 1e9, "s"),
      Metric("graph.build.s", buildS, "s"),
      Metric("graph.build.alloc_mb", buildMb, "MB"),
      Metric("jvm.gc.s", tc.gcMillis / 1e3, "s"),
      Metric("jvm.alloc_mb", tc.allocBytes / 1e6, "MB"),
      Metric("trace.total.s", tc.totalNs / 1e9, "s"),
      Metric("trace.overhead", Stats.median(calls.map(_.totalNs / 1e9).toSeq) / Stats.median(untraced.toSeq), "ratio"),
    )
    val notes = Seq(
      f"graph: n=${g.numVertices} m=${g.numEdges}; threads=$threads",
      f"traced total ${tc.totalNs / 1e9}%.4f s = spans ${tc.spanNs / 1e9}%.4f s + driver_other ${otherNs / 1e9}%.4f s",
      s"replica fidelity: ${if (fidelity.contains(true)) "bit-identical" else "FAILED"}" +
        (if (w.deterministic) " to the untraced calls" else " to the entry point at threads=1"),
    )
    // Span times are relative to the start of their traced call.
    val spansJson = calls.toSeq.map { c =>
      Json.obj(Seq(
        "total_ns"    -> c.totalNs.toString,
        "cpu_ns"      -> c.cpuNs.toString,
        "alloc_bytes" -> c.allocBytes.toString,
        "gc_ms"       -> c.gcMillis.toString,
        "spans"       -> Json.arr(c.spans.map(s => Json.obj(Seq(
          "name" -> Json.str(s.name), "level" -> s.level.toString,
          "start_ns" -> (s.startNs - c.startNs).toString, "end_ns" -> (s.endNs - c.startNs).toString,
          "n_in" -> s.nIn.toString, "m_in" -> s.mIn.toString, "passes" -> s.passes.toString,
          "cpu_ns" -> s.cpuNs.toString, "alloc_bytes" -> s.allocBytes.toString)))),
      ))
    }
    Outcome(metrics, chk, notes, Seq(
      "untraced_s"   -> Json.arr(untraced.toSeq.map(Json.num)),
      "traced_calls" -> Json.arr(spansJson),
    ))
  }

  /** At least one call and `WarmUpSeconds` (capped at half the measuring
    * time), so the hot loops are compiled before anything is timed.
    */
  private def warmUp(w: Workload, g: LocalGraph, opts: LouvainOptions, chk: Checker,
                     seconds: Double): Unit = {
    System.gc()
    val t0 = System.nanoTime()
    var calls = 0
    while (calls < 1 || secondsSince(t0) < math.min(WarmUpSeconds, seconds / 2)) {
      chk.run(w.cluster(g, opts))(identity)
      calls += 1
    }
    System.gc()
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def parseArgs(argv: List[String]): Args = {
    def loop(rest: List[String], a: Args): Args = rest match {
      case Nil                          => a
      case "--workload" :: v :: tl      => loop(tl, a.copy(workload = v))
      case "--seed" :: v :: tl          => loop(tl, a.copy(seed = Some(v.toLong)))
      case "--seconds" :: v :: tl       => loop(tl, a.copy(seconds = v.toDouble))
      case "--trace" :: "0" :: tl       => loop(tl, a.copy(trace = false))
      case "--trace" :: "1" :: tl       => loop(tl, a.copy(trace = true))
      case "--smoke" :: tl              => loop(tl, a.copy(smoke = true))
      case "--out-dir" :: v :: tl       => loop(tl, a.copy(outDir = Some(v)))
      case "--git-sha" :: v :: tl       => loop(tl, a.copy(gitSha = v))
      case "--source-hash" :: v :: tl   => loop(tl, a.copy(sourceHash = v))
      case other :: _                   => throw new IllegalArgumentException(s"unexpected argument: $other")
    }
    val a = loop(argv, Args("", None, 10, trace = false, smoke = false, None, "unknown", "unknown"))
    if (a.workload.isEmpty) throw new IllegalArgumentException("--workload is required")
    Workloads.byName(a.workload)
    a
  }
}

/** Output check applied to every clustering call. A call fails if it throws,
  * times out, returns labels that are not dense ids in [0, k) over all n
  * vertices, has a non-finite or non-positive objective, or — on a
  * deterministic workload — differs from the first call's labelling.
  */
final class Checker(w: Workload, g: LocalGraph) {
  var attempted = 0
  var failed    = 0
  val problems: ArrayBuffer[String] = ArrayBuffer.empty
  private var reference: Array[Int] = null

  def fail(problem: String): Unit = { failed += 1; problems += problem }

  /** Runs `call`, times it and checks the result it yields. */
  def run[A](call: => A)(resultOf: A => LouvainResult): Option[Checker.Timed[A]] = {
    attempted += 1
    val t0 = System.nanoTime()
    val a  = try Right(call) catch { case e: Exception => Left(e) }
    val dt = (System.nanoTime() - t0) / 1e9
    a match {
      case Left(e) => fail(s"call threw $e"); None
      case Right(v) =>
        val res = resultOf(v)
        verify(res) match {
          case Left(problem) => fail(problem); None
          case Right(obj)    => Some(Checker.Timed(v, dt, res, obj))
        }
    }
  }

  def matchesReference(labels: Array[Int]): Boolean =
    reference != null && java.util.Arrays.equals(reference, labels)

  private def verify(res: LouvainResult): Either[String, Double] = {
    val labels = res.clusters
    val n      = g.numVertices
    if (res.timedOut) return Left("call timed out")
    if (labels == null || labels.length != n) return Left(s"labels have length ${Option(labels).map(_.length)}, expected $n")
    var max = -1; var min = Int.MaxValue; var v = 0
    while (v < n) { max = math.max(max, labels(v)); min = math.min(min, labels(v)); v += 1 }
    if (n > 0 && min < 0) return Left(s"negative cluster id $min")
    val seen = new Array[Boolean](max + 1)
    var k = 0; v = 0
    while (v < n) { if (!seen(labels(v))) { seen(labels(v)) = true; k += 1 }; v += 1 }
    if (k != max + 1) return Left(s"cluster ids not dense: $k distinct ids in [0, ${max + 1})")
    val obj = w.objective(g, labels)
    if (obj.isNaN || obj.isInfinite || obj <= 0) return Left(s"objective $obj is not finite and positive")
    if (w.deterministic) {
      if (reference == null) reference = labels.clone()
      else if (!java.util.Arrays.equals(reference, labels)) return Left("labelling differs from the first call's")
    }
    Right(obj)
  }
}

object Checker {
  final case class Timed[A](value: A, seconds: Double, result: LouvainResult, objective: Double)
  type Sample = Timed[LouvainResult]
}

object Stats {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted; val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** Highest order statistic with at least ten samples above it, and its
    * percentile. Below 21 samples that statistic is at or under the median,
    * so the maximum (p100) stands in for the tail.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted; val n = s.length
    if (n == 0) (Double.NaN, Double.NaN)
    else if (n >= TailMinSamples) (s(n - 11), 100.0 * (n - 10) / n)
    else (s(n - 1), 100.0)
  }

  val TailMinSamples = 21
}

/** Minimal JSON writer (values are pre-rendered strings). */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString
  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
