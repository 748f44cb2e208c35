package repro.core

import java.util.SplittableRandom
import repro.graph.LocalGraph

/** SEQUENTIAL-CC (paper Alg. 2): classic Louvain adapted to the LambdaCC
  * objective. Moves are applied one vertex at a time over a fresh random
  * permutation each pass; a level converges when a pass makes no move (the
  * "while CC(C) has increased" loop) or after `opts.numIter` passes.
  *
  * That is PARALLEL-CC's BEST-MOVES body run at one thread, async, over the
  * driver's seeded permutation. The paper's SEQ baselines include the
  * applicable §4.1 optimizations (frontier restriction, refinement); both are
  * honored from `opts`.
  */
object SeqLouvain extends LouvainEngine {

  override def compressionThreads(opts: LouvainOptions): Int = 1

  override def bestMoves(
      g: LocalGraph, lambda: Double, opts: LouvainOptions,
      rng: SplittableRandom, init: Array[Int]): BestMovesResult =
    ParLouvain.run(g, lambda, opts.copy(threads = 1, mode = MoveMode.Async), init, Some(rng))
}
