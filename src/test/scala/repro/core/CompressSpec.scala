package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers
import repro.TestGraphs
import repro.graph.{GraphGen, LocalGraph}

class CompressSpec extends AnyFunSuite with Matchers {

  private val EPS = 1e-9

  test("compressing a triangle into one cluster yields a single self-loop vertex") {
    val g = LocalGraph.fromUnweightedEdges(3, Seq((0, 1), (1, 2), (0, 2)))
    val c = Compress.compress(g, Array(0, 0, 0), 1)
    c.numVertices shouldBe 1
    c.numEdges shouldBe 0
    c.selfLoop(0) shouldBe 3.0 +- EPS
    c.vertexWeight(0) shouldBe 3.0 +- EPS
    c.sqWeight(0) shouldBe 3.0 +- EPS
  }

  test("inter-cluster edges are aggregated") {
    // two clusters {0,1} and {2,3}; edges across: (1,2) w=1, (0,3) w=2
    val g = LocalGraph.fromEdges(4, Seq((0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0), (0, 3, 2.0)))
    val c = Compress.compress(g, Array(0, 0, 1, 1), 2)
    c.numVertices shouldBe 2
    c.numEdges shouldBe 1
    c.wgts(c.offsets(0)) shouldBe 3.0 +- EPS
    c.selfLoop(0) shouldBe 1.0 +- EPS
    c.selfLoop(1) shouldBe 1.0 +- EPS
  }

  test("pre-existing self-loops accumulate through compression") {
    val g0 = LocalGraph.fromEdges(2, Seq((0, 0, 5.0), (0, 1, 1.0)))
    val c  = Compress.compress(g0, Array(0, 0), 1)
    c.selfLoop(0) shouldBe 6.0 +- EPS
  }

  test("compression preserves the CC objective exactly (sequential)") {
    for (seed <- 1 to 15) {
      val n  = 10 + seed
      val g  = TestGraphs.randomWeighted(n, 0.3, seed)
      val cl = Objective.normalize(TestGraphs.randomClustering(n, 4, seed + 1))
      val nC = cl.max + 1
      val lambda = 0.05 * (1 + seed % 15)
      val base   = Objective.cc(g, cl, lambda)
      val comp   = Compress.compress(g, cl, nC)
      // On the compressed graph each super-vertex as its own cluster must give
      // the same objective value.
      val idCl = Array.tabulate(nC)(identity)
      Objective.cc(comp, idCl, lambda) shouldBe base +- 1e-8
    }
  }

  test("objective preserved under further clustering of the compressed graph") {
    for (seed <- 1 to 10) {
      val n  = 16
      val g  = TestGraphs.randomWeighted(n, 0.4, seed)
      val cl = Objective.normalize(TestGraphs.randomClustering(n, 6, seed + 2))
      val nC = cl.max + 1
      val lambda = 0.3
      val comp  = Compress.compress(g, cl, nC)
      val cl2   = Objective.normalize(TestGraphs.randomClustering(nC, 3, seed + 5))
      val flat  = Compress.flatten(cl, cl2)
      Objective.cc(comp, cl2, lambda) shouldBe Objective.cc(g, flat, lambda) +- 1e-8
    }
  }

  test("parallel compression matches sequential") {
    for (seed <- 1 to 8) {
      val n  = 200
      val g  = TestGraphs.randomWeighted(n, 0.05, seed)
      val cl = Objective.normalize(TestGraphs.randomClustering(n, 20, seed))
      val nC = cl.max + 1
      val s  = Compress.compress(g, cl, nC, threads = 1)
      val p  = Compress.compress(g, cl, nC, threads = 8)
      p.numVertices shouldBe s.numVertices
      p.numEdges shouldBe s.numEdges
      p.undirectedEdges.map { case (a, b, w) => (a, b, math.round(w * 1e9)) }.sorted shouldBe
        s.undirectedEdges.map { case (a, b, w) => (a, b, math.round(w * 1e9)) }.sorted
      p.selfLoop.zip(s.selfLoop).foreach { case (a, b) => a shouldBe b +- EPS }
      p.vertexWeight.zip(s.vertexWeight).foreach { case (a, b) => a shouldBe b +- EPS }
    }
  }

  test("vertex weights and sq weights are summed per cluster") {
    val g = LocalGraph.fromUnweightedEdges(4, Seq((0, 1), (2, 3)))
      .withVertexWeights(Array(1.0, 2.0, 3.0, 4.0))
    val c = Compress.compress(g, Array(0, 0, 1, 1), 2)
    c.vertexWeight.toSeq shouldBe Seq(3.0, 7.0)
    c.sqWeight.toSeq shouldBe Seq(5.0, 25.0)
  }

  test("flatten composes clusterings") {
    val dense = Array(0, 1, 0, 2)
    val comp  = Array(5, 5, 7)
    Compress.flatten(dense, comp).toSeq shouldBe Seq(5, 5, 5, 7)
  }

  test("flatten parallel matches sequential") {
    val n = 5000
    val dense = TestGraphs.randomClustering(n, 50, 1)
    val comp  = TestGraphs.randomClustering(50, 7, 2)
    Compress.flatten(dense, comp, 8).toSeq shouldBe Compress.flatten(dense, comp, 1).toSeq
  }

  /** Adjacency entries a→b with their weight bits; fails on a repeated entry. */
  private def entryBits(g: LocalGraph): Map[(Int, Int), Long] = {
    val es = for (a <- 0 until g.numVertices; i <- g.offsets(a) until g.offsets(a + 1))
      yield (a, g.nbrs(i)) -> java.lang.Double.doubleToRawLongBits(g.wgts(i))
    es.map(_._1).distinct.length shouldBe es.length
    es.toMap
  }

  private def assertBitwiseSymmetric(g: LocalGraph): Unit = {
    val bits = entryBits(g)
    bits.foreach { case ((a, b), w) =>
      a should not be b
      bits.get((b, a)) shouldBe Some(w)
    }
  }

  private def assertSameArrays(a: LocalGraph, b: LocalGraph): Unit = {
    a.numVertices shouldBe b.numVertices
    java.util.Arrays.equals(a.offsets, b.offsets) shouldBe true
    java.util.Arrays.equals(a.nbrs, b.nbrs) shouldBe true
    java.util.Arrays.equals(a.wgts, b.wgts) shouldBe true
    java.util.Arrays.equals(a.selfLoop, b.selfLoop) shouldBe true
    java.util.Arrays.equals(a.vertexWeight, b.vertexWeight) shouldBe true
    java.util.Arrays.equals(a.sqWeight, b.sqWeight) shouldBe true
  }

  test("compressed weights are bitwise symmetric on non-integer weights") {
    for (seed <- 1 to 8) {
      val g  = TestGraphs.randomWeighted(120, 0.1, seed)
      assertBitwiseSymmetric(g)
      val cl = Objective.normalize(TestGraphs.randomClustering(120, 15, seed + 3))
      for (threads <- Seq(1, 4)) assertBitwiseSymmetric(Compress.compress(g, cl, cl.max + 1, threads))
    }
  }

  test("compressed rows hold higher ids, then lower ids ascending") {
    for (seed <- 1 to 6) {
      val g  = TestGraphs.randomWeighted(150, 0.08, seed)
      val cl = Objective.normalize(TestGraphs.randomClustering(150, 30, seed + 7))
      val c  = Compress.compress(g, cl, cl.max + 1, threads = 4)
      for (v <- 0 until c.numVertices) {
        val lower = c.nbrs.slice(c.offsets(v), c.offsets(v + 1)).dropWhile(_ > v)
        lower.forall(_ < v) shouldBe true
        lower.toSeq shouldBe lower.sorted.toSeq
      }
    }
  }

  test("compression arrays are identical at 1 and 8 threads") {
    for (seed <- 1 to 4) {
      // More than 512 clusters, so the 8-thread run takes the chunked path.
      val n  = 3000
      val g  = TestGraphs.randomWeighted(n, 0.004, seed)
      val cl = Objective.normalize(TestGraphs.randomClustering(n, 900, seed))
      val nC = cl.max + 1
      nC should be > 512
      assertSameArrays(Compress.compress(g, cl, nC, threads = 1), Compress.compress(g, cl, nC, threads = 8))
    }
  }

  test("contracting a built graph by the identity clustering returns its arrays bit for bit") {
    // Vertex 0 is a hub whose neighbours are all higher, so its entries fill
    // the whole of its degree-sized slot; every row must come out as the input
    // builder laid it out.
    val n    = 1500
    val base = TestGraphs.randomWeighted(n, 0.004, 29).undirectedEdges
    val g    = LocalGraph.fromEdges(n, base ++ (1 until n).map(v => (0, v, 0.3)) ++
      (0 until n by 7).map(v => (v, v, 0.1 * v))).withDegreeWeights
    g.degree(0) shouldBe n - 1
    for (threads <- Seq(1, 8)) assertSameArrays(Compress.compress(g, Array.tabulate(n)(identity), n, threads), g)
  }

  test("compression arrays match pinned hashes on a fractional-weight sbm") {
    // Pins the summation order: every weight is fractional, so reordering any
    // per-cluster or per-pair sum changes the bits.
    val gt = GraphGen.sbm(9000, 4, 12, 8.0, 6.0, seed = 5)
    val g  = LocalGraph.fromEdges(9000, gt.graph.undirectedEdges.map { case (u, v, w) =>
      (u, v, w * (0.1 + ((u * 7 + v * 13) % 10) * 0.173)) }).withDegreeWeights
    val cl = Objective.normalize(gt.membership.map(_ / 2))
    val nC = cl.max + 1
    nC should be > 512
    for (threads <- Seq(1, 4)) {
      val c = Compress.compress(g, cl, nC, threads)
      import java.util.Arrays.{hashCode => h}
      Seq(h(c.offsets), h(c.nbrs), h(c.wgts), h(c.selfLoop), h(c.vertexWeight), h(c.sqWeight)) shouldBe
        Seq(558521721, -1167015241, 24120639, 804665010, -1551155235, -59619683)
    }
  }

  test("skewed clustering: one giant cluster plus many singletons") {
    // Vertex 0 is a hub tied to everyone; vertices below `giant` form one
    // cluster, the other 700 stay singletons.
    val n = 1200; val giant = 500
    val base  = TestGraphs.randomWeighted(n, 0.01, 17).undirectedEdges
    val g     = LocalGraph.fromEdges(n, base ++ (1 until n).map(v => (0, v, 0.3)))
    val cl    = Array.tabulate(n)(v => if (v < giant) 0 else v - giant + 1)
    val nC    = n - giant + 1
    nC should be > 512
    val seq = Compress.compress(g, cl, nC, threads = 1)
    val par = Compress.compress(g, cl, nC, threads = 8)
    assertSameArrays(seq, par)
    assertBitwiseSymmetric(par)
    par.degree(0) shouldBe nC - 1 // the hub row reaches every singleton
    par.vertexWeight(0) shouldBe giant.toDouble
    for (lambda <- Seq(0.01, 0.2, 0.7))
      Objective.cc(par, Array.tabulate(nC)(identity), lambda) shouldBe Objective.cc(g, cl, lambda) +- 1e-8
  }

  test("duplicate edges and self-loops are merged by the builder and survive compression") {
    val g = LocalGraph.fromEdges(5, Seq(
      (0, 1, 0.5), (1, 0, 0.25), (2, 2, 1.0), (0, 1, 0.125), (2, 3, 1.0),
      (3, 3, 2.0), (2, 2, 0.5), (3, 2, 0.1), (4, 0, 0.3), (0, 4, 0.3), (1, 2, 0.4), (2, 1, 1.0)))
    g.numEdges shouldBe 4
    g.selfLoop.toSeq shouldBe Seq(0.0, 0.0, 1.5, 2.0, 0.0)
    assertBitwiseSymmetric(g)
    val bits = entryBits(g).map { case (k, w) => k -> java.lang.Double.longBitsToDouble(w) }
    bits((0, 1)) shouldBe 0.875 +- EPS
    bits((2, 3)) shouldBe 1.1 +- EPS
    bits((0, 4)) shouldBe 0.6 +- EPS
    bits((1, 2)) shouldBe 1.4 +- EPS
    val cl = Array(0, 0, 1, 1, 0)
    val c  = Compress.compress(g, cl, 2, threads = 4)
    c.numEdges shouldBe 1
    c.wgts(c.offsets(0)) shouldBe 1.4 +- EPS
    c.selfLoop(0) shouldBe 1.475 +- EPS
    c.selfLoop(1) shouldBe 4.6 +- EPS
    for (lambda <- Seq(0.1, 0.5))
      Objective.cc(c, Array(0, 1), lambda) shouldBe TestGraphs.bruteForceCC(g, cl, lambda) +- 1e-8
  }
}
