package repro.baselines

import java.util.SplittableRandom
import repro.core._
import repro.graph.LocalGraph

/** NetworKit-PLM stand-in (DESIGN.md §3).
  *
  * NetworKit's PLM is, like PAR-MOD, an *asynchronous* parallel Louvain for
  * modularity; the paper attributes its 1.89x-average speedup over NetworKit
  * specifically to the parallel graph-compression step ("no such guarantee is
  * made in NetworKit"). This baseline therefore runs the identical async
  * BEST-MOVES engine but performs compression and flattening sequentially,
  * isolating exactly the variable the paper credits. NetworKit's default
  * `num_iter = 32` is applied by the T11 bench on both sides, mirroring §C.1.
  */
object PlmBaseline extends LouvainEngine {

  /** NetworKit's defaults: 32 passes per level, no refinement. */
  override protected def defaultOptions: LouvainOptions = LouvainOptions(numIter = 32, refine = false)

  override def bestMoves(g: LocalGraph, lambda: Double, opts: LouvainOptions,
                         rng: SplittableRandom, init: Array[Int]): BestMovesResult =
    ParLouvain.bestMoves(g, lambda, opts, rng, init)

  /** The defining difference: sequential SEQUENTIAL-COMPRESS. */
  override def compressionThreads(opts: LouvainOptions): Int = 1
}
