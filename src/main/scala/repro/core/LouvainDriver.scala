package repro.core

import java.util.SplittableRandom
import repro.graph.LocalGraph
import scala.collection.mutable.ArrayBuffer

/** Result of one BEST-MOVES invocation on a single level. Cluster ids live in
  * [0, 2n) — ids ≥ n are private detach targets — and are densified by the
  * driver before compression/refinement.
  */
private[repro] final case class BestMovesResult(
    clusters: Array[Int],
    passes: Int,
    anyMoved: Boolean,
    timedOut: Boolean,
)

/** A Louvain engine supplies the per-level BEST-MOVES subroutine; the driver
  * owns the shared coarsen → recurse → flatten (+ refinement) structure of
  * PARALLEL-CC / SEQUENTIAL-CC (paper Alg. 1 / Alg. 2).
  */
private[repro] trait LouvainEngine {
  def bestMoves(g: LocalGraph, lambda: Double, opts: LouvainOptions,
                rng: SplittableRandom, init: Array[Int]): BestMovesResult
  /** Threads used for compression/flatten (1 ⇒ sequential subroutines). */
  def compressionThreads(opts: LouvainOptions): Int
  /** Options a caller of `cluster`/`clusterModularity` gets by default. */
  protected def defaultOptions: LouvainOptions = LouvainOptions()

  /** Cluster `g` for the CC objective at resolution `lambda` (k_v from `g`). */
  def cluster(g: LocalGraph, lambda: Double, opts: LouvainOptions = defaultOptions): LouvainResult =
    LouvainDriver.run(g, lambda, opts, this)

  /** Modularity clustering (the -MOD variants): k_v = d_v, λ = γ/(2W). */
  def clusterModularity(g: LocalGraph, gamma: Double,
                        opts: LouvainOptions = defaultOptions): LouvainResult = {
    val w = g.totalEdgeWeight
    LouvainDriver.run(g.withDegreeWeights, gamma / (2 * w), opts, this)
  }
}

private[repro] object LouvainDriver {

  /** Full multi-level clustering of `g` under resolution `lambda`. */
  def run(g: LocalGraph, lambda: Double, opts: LouvainOptions,
          engine: LouvainEngine): LouvainResult = {
    val rng   = new SplittableRandom(opts.seed)
    val cthr  = engine.compressionThreads(opts)
    // Stack of (graph at level, dense clustering found for that graph).
    val stack = ArrayBuffer.empty[(LocalGraph, Array[Int])]
    var curG       = g
    var iterations = 0
    var timedOut   = false
    var done       = false
    while (!done && stack.length < opts.maxLevels) {
      val init = Array.range(0, curG.numVertices)
      val bm   = engine.bestMoves(curG, lambda, opts, rng, init)
      iterations += bm.passes
      timedOut ||= bm.timedOut
      val dense = Objective.normalize(bm.clusters)
      val nC    = if (dense.isEmpty) 0 else dense.max + 1
      stack += ((curG, dense))
      if (!bm.anyMoved || bm.timedOut || nC == curG.numVertices) done = true
      else curG = Compress.compress(curG, dense, nC, cthr)
    }

    // Memory accounting (Fig 8): with refinement every level graph stays
    // retained; without, only two adjacent levels coexist (during compress).
    val graphBytes = stack.map { case (gl, cl) => gl.sizeInBytes + 4L * cl.length }
    val allLevels  = graphBytes.sum
    val peakPair   =
      if (graphBytes.length == 1) graphBytes.head
      else graphBytes.sliding(2).map(_.sum).max

    // Unwind: flatten and (optionally) refine at each level.
    var comp: Array[Int] = null
    for ((gl, dense) <- stack.reverseIterator) {
      val flat =
        if (comp == null) dense
        else Compress.flatten(dense, comp, cthr)
      comp =
        if (opts.refine && comp != null && !timedOut) {
          val bm = engine.bestMoves(gl, lambda, opts, rng, Objective.normalize(flat))
          iterations += bm.passes
          timedOut ||= bm.timedOut
          Objective.normalize(bm.clusters)
        } else Objective.normalize(flat)
    }
    LouvainResult(comp, iterations, stack.length, allLevels, peakPair, timedOut)
  }
}

/** Frontier construction for BEST-MOVES (paper §3.2.2). The body stamps the
  * next frontier into an `Int` array with the pass number, so no pass has to
  * clear marks left by an earlier one.
  */
private[repro] object FrontierOps {

  /** The vertices `v` with `stamp(v) == pass`, ascending. */
  def stamped(stamp: Array[Int], pass: Int): Array[Int] = {
    var c = 0; var i = 0
    while (i < stamp.length) { if (stamp(i) == pass) c += 1; i += 1 }
    val out = new Array[Int](c)
    var p = 0; i = 0
    while (i < stamp.length) { if (stamp(i) == pass) { out(p) = i; p += 1 }; i += 1 }
    out
  }

  /** In-place Fisher–Yates shuffle (the paper's random permutation σ). */
  def shuffle(a: Array[Int], rng: SplittableRandom): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }
}
