package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.SplittableRandom
import repro.core.{Compress, LouvainEngine, LouvainOptions, LouvainResult, Objective}
import repro.graph.LocalGraph
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Process-wide counters read at span boundaries (HotSpot management beans). */
object Probe {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs     = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** CPU time used so far by all live Java threads. The process-wide figure
    * (`OperatingSystemMXBean.getProcessCpuTime`) counts 10 ms clock ticks on
    * Linux, too coarse for per-level spans; GC worker threads are not Java
    * threads, so their time shows in `gcMillis` instead.
    */
  def cpuNanos: Long = sumPositive(threads.getThreadCpuTime(threads.getAllThreadIds))

  /** Bytes allocated so far by all live Java threads. */
  def allocatedBytes: Long = sumPositive(threads.getThreadAllocatedBytes(threads.getAllThreadIds))

  /** Accumulated collection time over all collectors. */
  def gcMillis: Long = gcs.map(_.getCollectionTime.max(0L)).sum

  /** Per-thread counters read -1 for threads that ended meanwhile. */
  private def sumPositive(perThread: Array[Long]): Long = {
    var s = 0L; var i = 0
    while (i < perThread.length) { if (perThread(i) > 0) s += perThread(i); i += 1 }
    s
  }
}

/** One call into a layer, recorded around the call from the benchmark's code.
  *
  * @param nIn / mIn  vertices / undirected edges of the level graph it ran on
  * @param passes     BEST-MOVES passes (0 for layers without passes)
  */
final case class Span(name: String, level: Int, startNs: Long, endNs: Long,
                      nIn: Int, mIn: Long, passes: Int, cpuNs: Long, allocBytes: Long) {
  def wallNs: Long = endNs - startNs
}

/** In-memory span list; written out by the caller once the run has ended. */
final class Recorder {
  val spans: ArrayBuffer[Span] = ArrayBuffer.empty

  def record[A](name: String, level: Int, g: LocalGraph)(body: => A)(passesOf: A => Int): A = {
    val a0 = Probe.allocatedBytes
    val c0 = Probe.cpuNanos
    val t0 = System.nanoTime()
    val r  = body
    val t1 = System.nanoTime()
    val c1 = Probe.cpuNanos
    val a1 = Probe.allocatedBytes
    spans += Span(name, level, t0, t1, g.numVertices, g.numEdges, passesOf(r), c1 - c0, a1 - a0)
    r
  }
}

/** A traced clustering call: its result, its spans and whole-call counters. */
final case class TracedCall(result: LouvainResult, spans: Seq[Span], startNs: Long, totalNs: Long,
                            cpuNs: Long, allocBytes: Long, gcMillis: Long) {
  def spanNs: Long = spans.map(_.wallNs).sum
}

/** Replica of `LouvainDriver.run` that calls the same layer functions in the
  * same order and records a span around each: `bestMoves`, `Objective.normalize`,
  * `Compress.compress`, then on the way up `Compress.flatten` and refinement
  * `bestMoves`. Everything between spans (level bookkeeping, memory accounting,
  * the modularity re-weighting) is driver glue.
  *
  * The benchmark checks that the replica's labelling is bit-identical to the
  * public entry point's wherever the engine is deterministic, so drift between
  * this copy and the driver fails the traced run.
  */
object TracedDriver {

  def cluster(w: Workload, g: LocalGraph, opts: LouvainOptions): TracedCall = {
    val rec = new Recorder
    val a0  = Probe.allocatedBytes
    val gc0 = Probe.gcMillis
    val c0  = Probe.cpuNanos
    val t0  = System.nanoTime()
    val (gl, lambda) = w.driverInput(g)
    val res = run(gl, lambda, opts, w.engine, rec)
    val t1  = System.nanoTime()
    TracedCall(res, rec.spans.toSeq, t0, t1 - t0, Probe.cpuNanos - c0,
      Probe.allocatedBytes - a0, Probe.gcMillis - gc0)
  }

  private def run(g: LocalGraph, lambda: Double, opts: LouvainOptions,
                  engine: LouvainEngine, rec: Recorder): LouvainResult = {
    val rng   = new SplittableRandom(opts.seed)
    val cthr  = engine.compressionThreads(opts)
    val stack = ArrayBuffer.empty[(LocalGraph, Array[Int])]
    var curG       = g
    var iterations = 0
    var timedOut   = false
    var done       = false
    while (!done && stack.length < opts.maxLevels) {
      val level = stack.length
      val lg    = curG
      val init  = Array.tabulate(lg.numVertices)(identity)
      val bm    = rec.record("best_moves", level, lg)(engine.bestMoves(lg, lambda, opts, rng, init))(_.passes)
      iterations += bm.passes
      timedOut ||= bm.timedOut
      val dense = rec.record("normalize", level, lg)(Objective.normalize(bm.clusters))(_ => 0)
      val nC    = if (dense.isEmpty) 0 else dense.max + 1
      stack += ((lg, dense))
      if (!bm.anyMoved || bm.timedOut || nC == lg.numVertices) done = true
      else curG = rec.record("compress", level, lg)(Compress.compress(lg, dense, nC, cthr))(_ => 0)
    }

    val graphBytes = stack.map { case (gl, cl) => gl.sizeInBytes + 4L * cl.length }
    val allLevels  = graphBytes.sum
    val peakPair   =
      if (graphBytes.length == 1) graphBytes.head
      else graphBytes.sliding(2).map(_.sum).max

    var comp: Array[Int] = null
    var level = stack.length
    for ((gl, dense) <- stack.reverseIterator) {
      level -= 1
      val flat =
        if (comp == null) dense
        else { val c = comp; rec.record("flatten", level, gl)(Compress.flatten(dense, c, cthr))(_ => 0) }
      comp =
        if (opts.refine && comp != null && !timedOut) {
          val init = rec.record("normalize", level, gl)(Objective.normalize(flat))(_ => 0)
          val bm   = rec.record("refine", level, gl)(engine.bestMoves(gl, lambda, opts, rng, init))(_.passes)
          iterations += bm.passes
          timedOut ||= bm.timedOut
          rec.record("normalize", level, gl)(Objective.normalize(bm.clusters))(_ => 0)
        } else rec.record("normalize", level, gl)(Objective.normalize(flat))(_ => 0)
    }
    LouvainResult(comp, iterations, stack.length, allLevels, peakPair, timedOut)
  }
}

/** Moves the calling thread to the next CPU before each single-threaded call,
  * so a run's samples cover every core instead of the one the scheduler kept
  * the thread on. On a shared host each core slows down for seconds at a time
  * as neighbours load it; a one-thread workload timed on one core sees only
  * that core's episodes. Needs Linux and `taskset`; without them every call
  * runs wherever the scheduler puts it.
  */
final class CoreRotation(enabled: Boolean) {
  private val cpus = Runtime.getRuntime.availableProcessors()
  private var next = 0

  def advance(): Unit = if (enabled) { pin((next % cpus).toString); next += 1 }

  def release(): Unit = if (enabled) pin(s"0-${cpus - 1}")

  private def pin(cpuList: String): Unit =
    try {
      val tid = java.nio.file.Files.readSymbolicLink(java.nio.file.Paths.get("/proc/thread-self"))
        .getFileName.toString
      new ProcessBuilder("taskset", "-p", "-c", cpuList, tid)
        .redirectOutput(ProcessBuilder.Redirect.DISCARD)
        .redirectError(ProcessBuilder.Redirect.DISCARD)
        .start().waitFor()
    } catch { case _: java.io.IOException | _: UnsupportedOperationException => () }
}
