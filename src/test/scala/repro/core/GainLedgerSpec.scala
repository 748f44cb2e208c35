package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers
import repro.TestGraphs
import repro.baselines.PlmBaseline
import repro.graph.{GraphGen, LocalGraph}

/** The gain ledger (the summed scores of the chosen moves) against
  * recomputation, and the aggregation signal it drives.
  */
class GainLedgerSpec extends AnyFunSuite with Matchers {

  private def graphs: Seq[(String, LocalGraph)] = {
    val sbm = GraphGen.sbm(1500, 10, 50, 8, 2, seed = 11).graph
    val r   = new SplittableRandom(5)
    val frac = LocalGraph.fromEdges(sbm.numVertices,
      sbm.undirectedEdges.map { case (u, v, _) => (u, v, 0.1 + r.nextDouble()) })
    Seq("sbm" -> sbm, "frac sbm" -> frac, "rmat" -> GraphGen.rmat(11, 12000, seed = 3),
      "random weighted" -> TestGraphs.randomWeighted(300, 0.05, seed = 9))
  }

  private def gainOf(g: LocalGraph, clusters: Array[Int], lambda: Double): Double =
    Objective.cc(g, clusters, lambda) - Objective.cc(g, Array.range(0, g.numVertices), lambda)

  test("at one thread the ledger equals the realised CC gain (SEQ, PAR, PLM; CC and MOD)") {
    val one = LouvainOptions(seed = 3, threads = 1)
    for ((name, g) <- graphs) {
      val lambda = 0.05
      val gamma  = 1.0
      val gMod   = g.withDegreeWeights
      val lMod   = gamma / (2 * g.totalEdgeWeight)
      val runs = Seq(
        "SEQ-CC"         -> ((SeqLouvain.cluster(g, lambda, one), g, lambda)),
        "SEQ-CC noref"   -> ((SeqLouvain.cluster(g, lambda, one.copy(refine = false)), g, lambda)),
        "SEQ-MOD"        -> ((SeqLouvain.clusterModularity(g, gamma, one), gMod, lMod)),
        "PAR-CC"         -> ((ParLouvain.cluster(g, lambda, one), g, lambda)),
        "PAR-CC noref"   -> ((ParLouvain.cluster(g, lambda, one.copy(refine = false)), g, lambda)),
        "PAR-MOD"        -> ((ParLouvain.clusterModularity(g, gamma, one), gMod, lMod)),
        "PLM-MOD"        -> ((PlmBaseline.clusterModularity(g, gamma, LouvainOptions(numIter = 32, refine = false, threads = 1)), gMod, lMod)),
      )
      for ((engine, (res, gl, l)) <- runs) withClue(s"$name $engine: ") {
        val realised = gainOf(gl, res.clusters, l)
        realised should be > 0.0
        res.gain shouldBe realised +- 1e-9 * realised
      }
    }
  }

  /** Two super-vertices carrying `self` contracted weight each, joined by an
    * edge of weight 1: at λ = 0.5 the one move gains 0.5 on a level whose
    * singleton clustering scores 2·self.
    */
  private def pair(self: Double): LocalGraph =
    new LocalGraph(2, Array(0, 1, 2), Array(1, 0), Array(1.0, 1.0),
      Array(1.0, 1.0), Array(self, self), Array(1.0, 1.0))

  private def level(g: LocalGraph, opts: LouvainOptions): BestMovesResult =
    SeqLouvain.bestMoves(g, 0.5, opts, new SplittableRandom(1), Array(0, 1))

  test("a level that gains too little of its objective stops coarsening but keeps its moves") {
    // AggTol is 5%; the level's objective after the move is 2·self + 0.5
    val below = level(pair(self = 4.9), LouvainOptions()) // 0.5 of 10.3
    val above = level(pair(self = 4.6), LouvainOptions()) // 0.5 of 9.7
    for (bm <- Seq(below, above)) {
      bm.clusters(0) shouldBe bm.clusters(1)
      bm.gain shouldBe 0.5 +- 1e-12
    }
    below.anyMoved shouldBe false
    above.anyMoved shouldBe true
    // runs to convergence and sync runs keep coarsening
    level(pair(self = 4.9), LouvainOptions().toConvergence).anyMoved shouldBe true
    ParLouvain.bestMoves(pair(self = 4.9), 0.5, LouvainOptions(mode = MoveMode.Sync, threads = 1),
      new SplittableRandom(1), Array(0, 1)).anyMoved shouldBe true
  }
}
