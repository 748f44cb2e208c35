package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers
import repro.TestGraphs
import repro.baselines.PlmBaseline
import repro.graph.{GraphGen, LocalGraph}

class SeqLouvainSpec extends AnyFunSuite with Matchers {

  test("two cliques with a bridge: CC at moderate lambda separates the cliques") {
    val g   = TestGraphs.twoCliques(6)
    val res = SeqLouvain.cluster(g, 0.5)
    val cl  = res.clusters
    // each clique is one cluster
    (0 until 6).map(cl).toSet.size shouldBe 1
    (6 until 12).map(cl).toSet.size shouldBe 1
    cl(0) should not be cl(6)
  }

  test("very high lambda yields many clusters, very low lambda yields few") {
    val gt = GraphGen.sbm(500, 10, 30, 6, 2, seed = 4)
    val few  = SeqLouvain.cluster(gt.graph, 0.01).clusters.distinct.length
    val many = SeqLouvain.cluster(gt.graph, 0.95).clusters.distinct.length
    many should be > few
  }

  test("objective is non-negative and improves over singletons") {
    for (seed <- 1 to 5) {
      val g   = TestGraphs.randomUnweighted(60, 0.15, seed)
      val res = SeqLouvain.cluster(g, 0.3)
      val obj = Objective.cc(g, res.clusters, 0.3)
      obj should be >= -1e-9
    }
  }

  test("result is a local optimum under single vertex moves (convergence run)") {
    val g   = TestGraphs.twoCliques(5)
    val res = SeqLouvain.cluster(g, 0.4, LouvainOptions().toConvergence)
    val cl  = Objective.normalize(res.clusters)
    val base = Objective.cc(g, cl, 0.4)
    // no single-vertex move improves the objective
    val nC = cl.max + 1
    for (v <- 0 until g.numVertices; t <- 0 to nC) {
      if (t != cl(v)) {
        val trial = cl.clone(); trial(v) = t
        Objective.cc(g, trial, 0.4) should be <= base + 1e-8
      }
    }
  }

  test("karate at gamma=1 reaches known modularity range") {
    val g   = GraphGen.karate
    val res = SeqLouvain.clusterModularity(g, 1.0, LouvainOptions(seed = 1).toConvergence)
    val q   = Objective.modularity(g, res.clusters, 1.0)
    q should be > 0.43 // ~0.42 Newman + diagonal term in the paper convention
    q should be <= 0.50
  }

  test("SBM graph: recovered clusters align with ground truth (high ARI)") {
    val gt  = GraphGen.sbm(800, 15, 40, 8, 1.5, seed = 5)
    val res = SeqLouvain.cluster(gt.graph, 0.05)
    repro.eval.Metrics.ari(res.clusters, gt.membership) should be > 0.6
  }

  test("numIter=1 limits best-move passes and degrades or matches objective") {
    val gt   = GraphGen.sbm(400, 10, 30, 6, 2, seed = 6)
    val one  = SeqLouvain.cluster(gt.graph, 0.4, LouvainOptions(numIter = 1, refine = false))
    val conv = SeqLouvain.cluster(gt.graph, 0.4, LouvainOptions(refine = false).toConvergence)
    val o1 = Objective.cc(gt.graph, one.clusters, 0.4)
    val oc = Objective.cc(gt.graph, conv.clusters, 0.4)
    oc should be >= o1 - 1e-9
    one.numIterations should be <= conv.numIterations
  }

  test("refinement never decreases the objective") {
    for (seed <- 1 to 5) {
      val gt = GraphGen.sbm(500, 10, 40, 7, 2, seed = seed)
      val base = LouvainOptions(seed = seed)
      val noRef = SeqLouvain.cluster(gt.graph, 0.6, base.copy(refine = false))
      val ref   = SeqLouvain.cluster(gt.graph, 0.6, base.copy(refine = true))
      val oN = Objective.cc(gt.graph, noRef.clusters, 0.6)
      val oR = Objective.cc(gt.graph, ref.clusters, 0.6)
      oR should be >= oN - 1e-6
    }
  }

  test("frontier options all converge to comparable objective") {
    val gt = GraphGen.sbm(600, 10, 40, 7, 2, seed = 9)
    val l  = 0.5
    val all = SeqLouvain.cluster(gt.graph, l, LouvainOptions(frontier = Frontier.AllVertices))
    val nc  = SeqLouvain.cluster(gt.graph, l, LouvainOptions(frontier = Frontier.NbrsOfClusters))
    val nv  = SeqLouvain.cluster(gt.graph, l, LouvainOptions(frontier = Frontier.NbrsOfVertices))
    val oAll = Objective.cc(gt.graph, all.clusters, l)
    val oNc  = Objective.cc(gt.graph, nc.clusters, l)
    val oNv  = Objective.cc(gt.graph, nv.clusters, l)
    oNc should be > 0.8 * oAll
    oNv should be > 0.8 * oAll
  }

  test("deadline triggers timedOut flag") {
    val gt  = GraphGen.sbm(2000, 10, 40, 8, 3, seed = 2)
    val res = SeqLouvain.cluster(gt.graph, 0.5,
      LouvainOptions(deadlineNanos = System.nanoTime() - 1))
    res.timedOut shouldBe true
  }

  test("isolated vertices stay in their own clusters") {
    val g   = LocalGraph.fromUnweightedEdges(5, Seq((0, 1)))
    val res = SeqLouvain.cluster(g, 0.5)
    val cl  = res.clusters
    Set(cl(2), cl(3), cl(4)).size shouldBe 3
    cl(0) shouldBe cl(1) // λ=0.5 < 1 = edge weight ⇒ merge pays
  }

  test("weighted graph: strong edges dominate clustering") {
    // path a-b-c with strong (a,b), weak (b,c); λ high enough to exclude c
    val g = LocalGraph.fromEdges(3, Seq((0, 1, 10.0), (1, 2, 0.1)))
    val res = SeqLouvain.cluster(g, 0.5)
    res.clusters(0) shouldBe res.clusters(1)
    res.clusters(2) should not be res.clusters(0)
  }

  test("levels and memory accounting are populated") {
    val gt = GraphGen.sbm(300, 10, 30, 6, 2, seed = 3)
    val res = SeqLouvain.cluster(gt.graph, 0.1)
    res.numLevels should be >= 1
    res.retainedBytesAllLevels should be >= res.peakBytesNoRefine / 2
    res.retainedBytesAllLevels should be > gt.graph.sizeInBytes
  }

  test("pinned outputs: SEQ, PAR at one thread and PLM at one thread do not drift") {
    // None of these runs race, so their labels are fixed; any change to the
    // move kernel, the frontier or compression that alters a result fails here.
    val g = GraphGen.sbm(1500, 10, 50, 8, 2, seed = 11).graph
    val frontiers = Seq(Frontier.AllVertices, Frontier.NbrsOfClusters, Frontier.NbrsOfVertices)
    val modes     = Seq(MoveMode.Async, MoveMode.Sync)
    def pin(r: LouvainResult): (Int, Int) = (java.util.Arrays.hashCode(r.clusters), r.numIterations)
    val got = Seq.newBuilder[(String, (Int, Int))]
    for (l <- Seq(0.05, 0.5)) {
      for (f <- frontiers)
        got += s"seq $l $f" -> pin(SeqLouvain.cluster(g, l, LouvainOptions(frontier = f, seed = 3)))
      for (m <- modes; f <- frontiers)
        got += s"par1 $l $m $f" ->
          pin(ParLouvain.cluster(g, l, LouvainOptions(frontier = f, mode = m, threads = 1)))
    }
    got += "seq-mod 1.0" -> pin(SeqLouvain.clusterModularity(g, 1.0, LouvainOptions(seed = 3)))
    for (m <- modes)
      got += s"par1-mod 1.0 $m" ->
        pin(ParLouvain.clusterModularity(g, 1.0, LouvainOptions(mode = m, threads = 1)))
    got += "plm1-mod 1.0" ->
      pin(PlmBaseline.clusterModularity(g, 1.0, LouvainOptions(numIter = 32, refine = false, threads = 1)))
    // Fractional weights: cluster-weight sums are inexact, so the order in
    // which they are accumulated could show here.
    val r  = new SplittableRandom(5)
    val gf = LocalGraph.fromEdges(g.numVertices,
      g.undirectedEdges.map { case (u, v, _) => (u, v, 0.1 + r.nextDouble()) })
    got += "frac seq-mod 1.0" -> pin(SeqLouvain.clusterModularity(gf, 1.0, LouvainOptions(seed = 3)))
    got += "frac seq 0.3"     -> pin(SeqLouvain.cluster(gf, 0.3, LouvainOptions(seed = 3)))
    for (m <- modes)
      got += s"frac par1-mod 1.0 $m" ->
        pin(ParLouvain.clusterModularity(gf, 1.0, LouvainOptions(mode = m, threads = 1)))
    // recorded before SEQ's move loop was merged into PAR's; the par1 frontier,
    // par1-mod and fractional-weight rows before the sync rebuild and the
    // cluster-size counters were removed from the BEST-MOVES body
    val expected = Seq[(String, (Int, Int))](
      "seq 0.05 AllVertices"           -> (1413137492, 17),
      "seq 0.05 NbrsOfClusters"        -> (1413137492, 18),
      "seq 0.05 NbrsOfVertices"        -> (1413137492, 17),
      "par1 0.05 Async AllVertices"    -> (1413137492, 17),
      "par1 0.05 Async NbrsOfClusters" -> (1413137492, 17),
      "par1 0.05 Async NbrsOfVertices" -> (1413137492, 17),
      "par1 0.05 Sync AllVertices"     -> (-1009257743, 70),
      "par1 0.05 Sync NbrsOfClusters"  -> (-1009257743, 70),
      "par1 0.05 Sync NbrsOfVertices"  -> (-1009257743, 70),
      "seq 0.5 AllVertices"            -> (-1979924885, 13),
      "seq 0.5 NbrsOfClusters"         -> (1042017088, 12),
      "seq 0.5 NbrsOfVertices"         -> (1042017088, 13),
      "par1 0.5 Async AllVertices"     -> (-1505659899, 12),
      "par1 0.5 Async NbrsOfClusters"  -> (-1505659899, 12),
      "par1 0.5 Async NbrsOfVertices"  -> (1891801917, 14),
      "par1 0.5 Sync AllVertices"      -> (-1711588034, 90),
      "par1 0.5 Sync NbrsOfClusters"   -> (-1711588034, 90),
      "par1 0.5 Sync NbrsOfVertices"   -> (-1711588034, 90),
      "seq-mod 1.0"                    -> (410895665, 21),
      "par1-mod 1.0 Async"             -> (2058818528, 21),
      "par1-mod 1.0 Sync"              -> (70474280, 70),
      "plm1-mod 1.0"                   -> (2058818528, 24),
      "frac seq-mod 1.0"               -> (1212844740, 21),
      "frac seq 0.3"                   -> (1921390294, 13),
      "frac par1-mod 1.0 Async"        -> (-56581148, 21),
      "frac par1-mod 1.0 Sync"         -> (-2126753284, 50),
    )
    got.result() shouldBe expected
  }
}
