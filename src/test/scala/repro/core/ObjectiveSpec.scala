package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers
import repro.TestGraphs
import repro.graph.{GraphGen, LocalGraph}

class ObjectiveSpec extends AnyFunSuite with Matchers {

  private val EPS = 1e-9

  test("cc of singletons is zero on a simple graph") {
    val g = TestGraphs.randomUnweighted(20, 0.2, 1)
    val singles = Array.tabulate(20)(identity)
    Objective.cc(g, singles, 0.3) shouldBe 0.0 +- EPS
  }

  test("cc of one big cluster equals m - lambda*n*(n-1)/2 on unweighted graph") {
    val n = 15
    val g = TestGraphs.randomUnweighted(n, 0.3, 2)
    val all = Array.fill(n)(0)
    val lambda = 0.2
    val expected = g.numEdges - lambda * n * (n - 1) / 2.0
    Objective.cc(g, all, lambda) shouldBe expected +- EPS
  }

  test("cc matches brute force on random weighted graphs and clusterings") {
    for (seed <- 1 to 20) {
      val n  = 5 + seed % 20
      val g  = TestGraphs.randomWeighted(n, 0.4, seed)
      val cl = TestGraphs.randomClustering(n, 4, seed + 100)
      val lambda = 0.05 * (seed % 19 + 1)
      Objective.cc(g, cl, lambda) shouldBe TestGraphs.bruteForceCC(g, cl, lambda) +- EPS
    }
  }

  // NOTE on the modularity convention: the paper defines Q over i≠j pairs
  // (Reichardt–Bornholdt), which EXCLUDES the null-model diagonal d_i²/(2m)².
  // Values therefore sit γ·Σd²/(2m)² above textbook Newman modularity. The
  // reference values below are computed from the paper's formula directly.

  /** Paper's Q = (1/2m)·Σ_{i≠j}(A_ij − γ d_i d_j/2m)(1−x_ij), by brute force. */
  private def paperModularity(g: LocalGraph, cl: Array[Int], gamma: Double): Double = {
    val n = g.numVertices
    val twoM = 2 * g.totalEdgeWeight
    val d = Array.tabulate(n)(g.weightedDegree)
    val adj = g.undirectedEdges.map { case (u, v, w) => ((u, v), w) }.toMap
    var q = 0.0
    for (i <- 0 until n; j <- 0 until n if i != j && cl(i) == cl(j)) {
      val a = adj.getOrElse((math.min(i, j), math.max(i, j)), 0.0)
      q += a - gamma * d(i) * d(j) / twoM
    }
    q / twoM
  }

  test("modularity matches the paper's i≠j formula on a clique") {
    val s = 6
    val clique = LocalGraph.fromUnweightedEdges(s,
      for { u <- 0 until s; v <- u + 1 until s } yield (u, v))
    val all = Array.fill(s)(0)
    for (gamma <- Seq(0.5, 1.0)) {
      Objective.modularity(clique, all, gamma) shouldBe
        paperModularity(clique, all, gamma) +- EPS
    }
  }

  test("modularity matches paper formula on two disconnected cliques") {
    val s = 5
    val edges = (for { u <- 0 until s; v <- u + 1 until s } yield (u, v)) ++
      (for { u <- s until 2 * s; v <- u + 1 until 2 * s } yield (u, v))
    val clean = LocalGraph.fromUnweightedEdges(2 * s, edges)
    val split = Array.tabulate(2 * s)(v => if (v < s) 0 else 1)
    Objective.modularity(clean, split, 1.0) shouldBe
      paperModularity(clean, split, 1.0) +- EPS
    // and the split beats the merge
    val merged = Array.fill(2 * s)(0)
    Objective.modularity(clean, split, 1.0) should be >
      Objective.modularity(clean, merged, 1.0)
  }

  test("karate: known good split has higher modularity than random") {
    val g = GraphGen.karate
    val factions = Array(0,0,0,0,0,0,0,0,1,1,0,0,0,0,1,1,0,0,1,0,1,0,1,1,1,1,1,1,1,1,1,1,1,1)
    val rand = TestGraphs.randomClustering(34, 2, 99)
    Objective.modularity(g, factions, 1.0) should be > Objective.modularity(g, rand, 1.0)
    // 0.3715 (Newman convention) + Σd²/(2m)² diagonal ≈ 0.421 in paper convention
    Objective.modularity(g, factions, 1.0) shouldBe
      paperModularity(g, factions, 1.0) +- EPS
    Objective.modularity(g, factions, 1.0) shouldBe 0.4213 +- 0.005
  }

  test("move delta formula matches objective difference (property, 300 cases)") {
    var checked = 0
    var seed = 1L
    while (checked < 300) {
      val rng  = new java.util.SplittableRandom(seed)
      val n    = 4 + rng.nextInt(20)
      val g    = TestGraphs.randomWeighted(n, 0.4, seed)
      val lambda = rng.nextDouble() * 0.9 + 0.01
      val cl     = TestGraphs.randomClustering(n, 1 + rng.nextInt(5), seed + 7)
      val v      = rng.nextInt(n)
      val c      = cl(v)
      val target = rng.nextInt(6) // may be a new/empty cluster id
      if (target != c) {
        val before = Objective.cc(g, cl, lambda)
        // formula inputs
        var wToC = 0.0; var wToT = 0.0
        var i = g.offsets(v)
        while (i < g.offsets(v + 1)) {
          val u = g.nbrs(i)
          if (cl(u) == c) wToC += g.wgts(i)
          if (cl(u) == target) wToT += g.wgts(i)
          i += 1
        }
        var kc = 0.0; var kt = 0.0
        var u = 0
        while (u < n) {
          if (cl(u) == c) kc += g.vertexWeight(u)
          if (cl(u) == target) kt += g.vertexWeight(u)
          u += 1
        }
        val delta = Objective.moveDelta(g.vertexWeight(v), lambda, wToC, kc, wToT, kt)
        val after = cl.clone(); after(v) = target
        val actual = Objective.cc(g, after, lambda) - before
        withClue(s"seed=$seed v=$v target=$target: ") {
          math.abs(delta - actual) should be < 1e-8
        }
        checked += 1
      }
      seed += 1
    }
  }

  test("delta formula also exact with degree (modularity) vertex weights") {
    for (seed <- 1 to 10) {
      val n  = 12
      val g0 = TestGraphs.randomWeighted(n, 0.5, seed)
      val g  = g0.withDegreeWeights
      val lambda = 0.7 / (2 * g0.totalEdgeWeight)
      val cl = TestGraphs.randomClustering(n, 3, seed)
      val v  = seed % n
      val target = 4
      if (cl(v) != target) {
        var wToC = 0.0; var wToT = 0.0
        var i = g.offsets(v)
        while (i < g.offsets(v + 1)) {
          if (cl(g.nbrs(i)) == cl(v)) wToC += g.wgts(i)
          if (cl(g.nbrs(i)) == target) wToT += g.wgts(i)
          i += 1
        }
        val kc = (0 until n).filter(cl(_) == cl(v)).map(g.vertexWeight).sum
        val kt = (0 until n).filter(cl(_) == target).map(g.vertexWeight).sum
        val delta  = Objective.moveDelta(g.vertexWeight(v), lambda, wToC, kc, wToT, kt)
        val after  = cl.clone(); after(v) = target
        val actual = Objective.cc(g, after, lambda) - Objective.cc(g, cl, lambda)
        math.abs(delta - actual) should be < 1e-8
      }
    }
  }

  test("normalize maps to dense ids preserving structure") {
    val cl = Array(7, 3, 7, 9, 3)
    val norm = Objective.normalize(cl)
    norm.toSeq shouldBe Seq(0, 1, 0, 2, 1)
  }

  test("normalize handles id zero correctly") {
    val cl = Array(5, 0, 5, 0)
    Objective.normalize(cl).toSeq shouldBe Seq(0, 1, 0, 1)
  }

  test("modularity equals scaled CC under the k=d, lambda=gamma/2W reduction") {
    for (seed <- 1 to 8) {
      val g  = TestGraphs.randomWeighted(15, 0.4, seed)
      val cl = TestGraphs.randomClustering(15, 4, seed + 3)
      val gamma = 0.3 + 0.1 * seed
      val w  = g.totalEdgeWeight
      val viaCC = Objective.cc(g.withDegreeWeights, cl, gamma / (2 * w)) / w
      Objective.modularity(g, cl, gamma) shouldBe viaCC +- 1e-9
    }
  }
}
