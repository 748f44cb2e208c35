package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers
import repro.TestGraphs
import repro.graph.GraphGen
import repro.util.{AtomicDoubleArray, IntDoubleMap}

class ParLouvainSpec extends AnyFunSuite with Matchers {

  test("the move rule picks a best-gaining target by recomputation (property, 240 cases)") {
    var stays = 0; var joins = 0; var detaches = 0
    for (seed <- 1L to 240L) {
      val rng = new java.util.SplittableRandom(seed)
      val n   = 4 + rng.nextInt(20)
      val g0  = TestGraphs.randomWeighted(n, 0.4, seed)
      // even seeds: modularity-style degree weights at lambda = gamma / 2W
      // (an edgeless draw has W = 0 and every k = 0, so any lambda will do)
      val (g, lambda) =
        if (seed % 2 == 0) (g0.withDegreeWeights, (0.2 + 1.6 * rng.nextDouble()) / (2 * g0.totalEdgeWeight).max(1.0))
        else (g0, 0.01 + 0.9 * rng.nextDouble())
      val cl    = TestGraphs.randomClustering(n, 1 + rng.nextInt(math.min(n, 5)), seed + 7)
      val u     = rng.nextInt(n)
      val c     = cl(u)
      val spare = n + u
      val map   = new IntDoubleMap(2 * n)
      for (i <- g.offsets(u) until g.offsets(u + 1)) map.addTo(cl(g.nbrs(i)), g.wgts(i))
      val kC = new AtomicDoubleArray(2 * n)
      for (v <- 0 until n) kC.add(cl(v), g.vertexWeight(v))
      val before = Objective.cc(g, cl, lambda)
      def gain(t: Int): Double =
        if (t == c) 0.0 else { val after = cl.clone(); after(u) = t; Objective.cc(g, after, lambda) - before }
      val candidates = ((0 until map.size).map(map.keyAt) :+ spare).filter(_ != c)
      val best = (0.0 +: candidates.map(gain)).max
      val t    = ParLouvain.choose(map, c, g.vertexWeight(u), lambda, kC, spare)
      withClue(s"seed=$seed u=$u c=$c t=$t best=$best: ") {
        (candidates :+ c) should contain (t)
        gain(t) shouldBe best +- 1e-9
        if (best <= 1e-11) t shouldBe c
      }
      if (t == c) stays += 1 else if (t == spare) detaches += 1 else joins += 1
    }
    // every branch of the rule is exercised
    stays should be > 0
    joins should be > 0
    detaches should be > 0
  }

  test("async matches sequential quality on two cliques") {
    val g   = TestGraphs.twoCliques(8)
    val res = ParLouvain.cluster(g, 0.5)
    val cl  = res.clusters
    (0 until 8).map(cl).toSet.size shouldBe 1
    (8 until 16).map(cl).toSet.size shouldBe 1
    cl(0) should not be cl(8)
  }

  test("async objective is close to sequential on SBM graphs") {
    for (lambda <- Seq(0.05, 0.5, 0.9)) {
      val gt  = GraphGen.sbm(1500, 10, 50, 8, 2, seed = 11)
      val s   = SeqLouvain.cluster(gt.graph, lambda, LouvainOptions(seed = 3))
      val p   = ParLouvain.cluster(gt.graph, lambda, LouvainOptions(seed = 3))
      val oS  = Objective.cc(gt.graph, s.clusters, lambda)
      val oP  = Objective.cc(gt.graph, p.clusters, lambda)
      // paper: parallel achieves 0.95-1.08x of sequential objective
      oP should be > 0.85 * oS
    }
  }

  test("async objective is positive (paper: async always positive)") {
    for (seed <- 1 to 4) {
      val gt = GraphGen.sbm(1000, 10, 40, 7, 2, seed = seed)
      for (lambda <- Seq(0.01, 0.85)) {
        val res = ParLouvain.cluster(gt.graph, lambda, LouvainOptions(seed = seed))
        Objective.cc(gt.graph, res.clusters, lambda) should be > 0.0
      }
    }
  }

  test("sync mode runs and produces a valid clustering") {
    val gt  = GraphGen.sbm(800, 10, 40, 7, 2, seed = 21)
    val res = ParLouvain.cluster(gt.graph, 0.5, LouvainOptions(mode = MoveMode.Sync))
    res.clusters.length shouldBe 800
    res.clusters.foreach(_ should be >= 0)
  }

  test("figure-1 pathology: sync on a symmetric path merges poorly vs async") {
    // With λ=0, path a-b-c: b and c both move toward a in lockstep (sync);
    // async breaks the tie. Both must still produce non-negative objective
    // at λ=0 since every edge weight is positive.
    val g = repro.graph.LocalGraph.fromEdges(3, Seq((0, 1, 1.0), (0, 2, 1.0)))
    val sync  = ParLouvain.cluster(g, 1e-9, LouvainOptions(mode = MoveMode.Sync, numIter = 3, refine = false))
    val async = ParLouvain.cluster(g, 1e-9, LouvainOptions(mode = MoveMode.Async, numIter = 3, refine = false))
    Objective.cc(g, async.clusters, 1e-9) should be >= Objective.cc(g, sync.clusters, 1e-9) - 1e-9
  }

  test("all frontier options give comparable objective") {
    val gt = GraphGen.sbm(1200, 10, 40, 7, 2, seed = 31)
    val l  = 0.5
    val objs = Seq(Frontier.AllVertices, Frontier.NbrsOfClusters, Frontier.NbrsOfVertices).map { f =>
      val r = ParLouvain.cluster(gt.graph, l, LouvainOptions(frontier = f, seed = 5))
      Objective.cc(gt.graph, r.clusters, l)
    }
    val mx = objs.max
    objs.foreach(_ should be > 0.8 * mx)
  }

  test("thread counts 1,2,8 all produce valid, comparable clusterings") {
    val gt = GraphGen.sbm(1000, 10, 40, 7, 2, seed = 41)
    val l  = 0.4
    val objs = Seq(1, 2, 8).map { t =>
      val r = ParLouvain.cluster(gt.graph, l, LouvainOptions(threads = t, seed = 7))
      r.clusters.length shouldBe 1000
      Objective.cc(gt.graph, r.clusters, l)
    }
    val mx = objs.max
    objs.foreach(_ should be > 0.85 * mx)
  }

  test("modularity run reaches sequential-level quality") {
    val gt = GraphGen.sbm(1000, 10, 40, 7, 2, seed = 51)
    val s  = SeqLouvain.clusterModularity(gt.graph, 1.0, LouvainOptions(seed = 3))
    val p  = ParLouvain.clusterModularity(gt.graph, 1.0, LouvainOptions(seed = 3))
    val qS = Objective.modularity(gt.graph, s.clusters, 1.0)
    val qP = Objective.modularity(gt.graph, p.clusters, 1.0)
    qP should be > 0.95 * qS
  }

  test("refinement does not reduce objective (async)") {
    val gt = GraphGen.sbm(900, 10, 40, 7, 2, seed = 61)
    val l  = 0.7
    val noRef = ParLouvain.cluster(gt.graph, l, LouvainOptions(refine = false, seed = 4))
    val ref   = ParLouvain.cluster(gt.graph, l, LouvainOptions(refine = true, seed = 4))
    val oN = Objective.cc(gt.graph, noRef.clusters, l)
    val oR = Objective.cc(gt.graph, ref.clusters, l)
    // async races make individual runs noisy (paper: no convergence
    // guarantee); refinement must at least roughly preserve the objective
    oR should be >= oN - math.abs(oN) * 0.10 - 1e-6
  }

  test("refinement retains more memory than no-refinement accounting") {
    val gt  = GraphGen.sbm(2000, 10, 40, 7, 2, seed = 71)
    val res = ParLouvain.cluster(gt.graph, 0.05, LouvainOptions(seed = 4))
    res.retainedBytesAllLevels should be >= res.peakBytesNoRefine
  }

  test("SBM ground-truth recovery matches sequential (ARI)") {
    val gt = GraphGen.sbm(1500, 15, 40, 8, 1.5, seed = 81)
    val p  = ParLouvain.cluster(gt.graph, 0.05, LouvainOptions(seed = 2))
    repro.eval.Metrics.ari(p.clusters, gt.membership) should be > 0.6
  }

  test("deadline produces timedOut without crashing") {
    val gt  = GraphGen.sbm(3000, 10, 40, 8, 3, seed = 91)
    val res = ParLouvain.cluster(gt.graph, 0.5, LouvainOptions(deadlineNanos = System.nanoTime() - 1))
    res.timedOut shouldBe true
  }

  test("num iterations is reported and bounded by numIter per level") {
    val gt  = GraphGen.sbm(600, 10, 30, 6, 2, seed = 95)
    val res = ParLouvain.cluster(gt.graph, 0.5, LouvainOptions(numIter = 3, refine = false))
    res.numIterations should be >= 1
    res.numIterations should be <= 3 * res.numLevels
  }
}
