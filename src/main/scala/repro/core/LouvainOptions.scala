package repro.core

import repro.util.Parallel

/** Scheduling of vertex moves inside BEST-MOVES (paper §3.2.1). */
sealed trait MoveMode
object MoveMode {
  /** Moves applied immediately with racy atomic updates (symmetry breaking). */
  case object Async extends MoveMode
  /** All desired moves computed against a frozen snapshot, then applied. */
  case object Sync extends MoveMode
}

/** Which vertices to (re)consider each BEST-MOVES iteration (paper §3.2.2). */
sealed trait Frontier
object Frontier {
  case object AllVertices    extends Frontier
  /** Neighbors of clusters affected by moves in the previous iteration. */
  case object NbrsOfClusters extends Frontier
  /** Neighbors of vertices moved in the previous iteration (paper default). */
  case object NbrsOfVertices extends Frontier
}

/** Knobs shared by SEQ-* and PAR-* implementations.
  *
  * @param numIter   max BEST-MOVES passes per level (`Int.MaxValue` ⇒ run to
  *                  convergence — the paper's ^CON superscript)
  * @param maxLevels max coarsening levels, at least 1
  * @param refine    multi-level refinement (paper §3.2.3)
  * @param frontier  vertex-subset optimization (paper §3.2.2)
  * @param mode      async vs sync (paper §3.2.1; fixed to Async by SeqLouvain)
  * @param threads   worker count (fixed to 1 by SeqLouvain)
  * @param seed      orders SeqLouvain's BEST-MOVES passes; PAR-* never reads
  *                  it, so its run-to-run variation comes only from thread
  *                  races (none at `threads = 1`)
  * @param deadlineNanos  absolute System.nanoTime() deadline — lets benches
  *                  reproduce the paper's "timed out" entries gracefully
  */
final case class LouvainOptions(
    numIter: Int = 10,
    maxLevels: Int = 40,
    refine: Boolean = true,
    frontier: Frontier = Frontier.NbrsOfVertices,
    mode: MoveMode = MoveMode.Async,
    threads: Int = Parallel.defaultThreads,
    seed: Long = 42,
    deadlineNanos: Long = Long.MaxValue,
) {
  require(maxLevels >= 1, s"maxLevels must be at least 1, got $maxLevels")

  /** Paper's ^CON setting: run each level's BEST-MOVES to convergence. */
  def toConvergence: LouvainOptions = copy(numIter = Int.MaxValue)
}

/** Output of a Louvain run.
  *
  * @param clusters  dense cluster id per original vertex
  * @param numIterations  total BEST-MOVES passes across all levels and
  *                  refinement steps — the paper's Fig-5 "rounds" metric
  * @param numLevels coarsening depth
  * @param retainedBytesAllLevels  bytes retained when every level is kept
  *                  (multi-level refinement; Fig-8 numerator with refinement)
  * @param peakBytesNoRefine  peak bytes when levels are discarded after
  *                  compression (Fig-8 numerator without refinement)
  */
final case class LouvainResult(
    clusters: Array[Int],
    numIterations: Int,
    numLevels: Int,
    retainedBytesAllLevels: Long,
    peakBytesNoRefine: Long,
    timedOut: Boolean,
)
