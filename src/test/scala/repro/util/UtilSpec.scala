package repro.util

import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers

class ParallelSpec extends AnyFunSuite with Matchers {

  test("forRange covers every index exactly once") {
    val n = 10000
    val hits = new java.util.concurrent.atomic.AtomicIntegerArray(n)
    Parallel.forRange(n, 8)(i => hits.incrementAndGet(i))
    (0 until n).foreach(i => hits.get(i) shouldBe 1)
  }

  test("forRange with single thread runs inline") {
    var sum = 0L
    Parallel.forRange(100, 1)(i => sum += i)
    sum shouldBe 4950L
  }

  test("forRange handles n=0 and negative") {
    Parallel.forRange(0, 4)(_ => fail("should not run"))
    Parallel.forRange(-5, 4)(_ => fail("should not run"))
  }

  test("forWorkers covers every index once, one body per worker at a time") {
    for (threads <- Seq(1, 3, 8)) {
      val n     = 20000
      val hits  = new java.util.concurrent.atomic.AtomicIntegerArray(n)
      val inUse = new java.util.concurrent.atomic.AtomicIntegerArray(threads)
      val bad   = new java.util.concurrent.atomic.AtomicInteger(0)
      Parallel.forWorkers(n, threads) { (w, i) =>
        if (w < 0 || w >= threads || !inUse.compareAndSet(w, 0, 1)) bad.incrementAndGet()
        else { hits.incrementAndGet(i); inUse.set(w, 0) }
      }
      bad.get shouldBe 0
      (0 until n).foreach(i => hits.get(i) shouldBe 1)
    }
  }

  test("forWorkers runs the sequential path as worker 0") {
    val workers = scala.collection.mutable.Set.empty[Int]
    Parallel.forWorkers(5000, 1)((w, _) => workers += w)
    Parallel.forWorkers(100, 4)((w, _) => workers += w) // below the parallel cutoff
    workers.toSet shouldBe Set(0)
  }

  /** Prefix sums of `work`, with work.length + 1 entries. */
  private def prefixOf(work: Array[Int]): Array[Int] = work.scanLeft(0)(_ + _)

  /** `cuts` splits [0, n) into non-empty ascending blocks. */
  private def checkCuts(cuts: Array[Int], n: Int): Unit = {
    cuts.head shouldBe 0
    cuts.last shouldBe n
    cuts.sliding(2).foreach { case Array(a, b) => a should be < b }
  }

  test("blocks are contiguous, ascending, non-empty and balanced by the prefix") {
    val rng  = new java.util.SplittableRandom(3)
    val n    = 5000
    val work = Array.tabulate(n)(i => if (i < 50) 2000 else rng.nextInt(20))
    val pre  = prefixOf(work)
    for (threads <- Seq(2, 3, 8)) {
      val cuts = Parallel.blocks(pre, n, threads)
      checkCuts(cuts, n)
      cuts.length - 1 should be > threads
      // Every block but the ones holding a single heavy index stays near its share.
      val share = (pre(n) + n).toDouble / (cuts.length - 1)
      cuts.sliding(2).foreach { case Array(a, b) =>
        if (b - a > 1) (pre(b) - pre(a) + b - a).toDouble should be <= 2 * share
      }
    }
    Parallel.blocks(pre, n, 1).toSeq shouldBe Seq(0, n)
    Parallel.blocks(Array(0), 0, 4).toSeq shouldBe Seq(0)
  }

  test("forBlocks covers every index once, one body per worker at a time") {
    val rng = new java.util.SplittableRandom(5)
    for (threads <- Seq(2, 3, 8); n <- Seq(1, 7, 100, 20000)) {
      val pre   = prefixOf(Array.fill(n)(rng.nextInt(50)))
      val cuts  = Parallel.blocks(pre, n, threads)
      checkCuts(cuts, n)
      val hits  = new java.util.concurrent.atomic.AtomicIntegerArray(n)
      val inUse = new java.util.concurrent.atomic.AtomicIntegerArray(threads)
      val bad   = new java.util.concurrent.atomic.AtomicInteger(0)
      Parallel.forBlocks(cuts, threads) { (w, b) =>
        if (w < 0 || w >= threads || !inUse.compareAndSet(w, 0, 1)) bad.incrementAndGet()
        else {
          for (i <- cuts(b) until cuts(b + 1)) hits.incrementAndGet(i)
          Thread.sleep(0, 1000)
          inUse.set(w, 0)
        }
      }
      bad.get shouldBe 0
      (0 until n).foreach(i => hits.get(i) shouldBe 1)
    }
  }

  test("forBlocks with one thread runs one block inline as worker 0") {
    val n    = 100 // below forWorkers' cut-off: blocks take no such short cut
    val pre  = prefixOf(Array.fill(n)(1))
    val cuts = Parallel.blocks(pre, n, 1)
    val seen = scala.collection.mutable.ArrayBuffer.empty[(Int, Int, Thread)]
    Parallel.forBlocks(cuts, 1)((w, b) => seen += ((w, b, Thread.currentThread)))
    seen.toSeq shouldBe Seq((0, 0, Thread.currentThread))
    // More than one thread on that small input still splits it.
    Parallel.blocks(pre, n, 4).length - 1 should be > 1
  }

  test("a prefix with all its work on one index still terminates") {
    for (n <- Seq(1, 2, 10, 1000); heavy <- Seq(0, n - 1)) {
      val work = new Array[Int](n); work(heavy) = 1 << 30
      val cuts = Parallel.blocks(prefixOf(work), n, 8)
      checkCuts(cuts, n)
      val hits = new java.util.concurrent.atomic.AtomicInteger(0)
      Parallel.forBlocks(cuts, 8)((_, b) => hits.addAndGet(cuts(b + 1) - cuts(b)))
      hits.get shouldBe n
    }
  }

  test("forRange propagates exceptions") {
    an[Exception] should be thrownBy
      Parallel.forRange(10000, 4)(i => if (i == 5000) throw new IllegalStateException("boom"))
  }
}

class AtomicDoubleArraySpec extends AnyFunSuite with Matchers {

  test("concurrent adds are lossless") {
    val a = new AtomicDoubleArray(2)
    Parallel.forRange(100000, 8)(_ => a.add(0, 1.0))
    a.get(0) shouldBe 100000.0
  }

  test("add of negative values") {
    val a = new AtomicDoubleArray(1)
    a.add(0, 5.5); a.add(0, -2.25)
    a.get(0) shouldBe 3.25
  }

  test("survives a Java-serialization round trip with bit-equal values") {
    val a = new AtomicDoubleArray(4)
    a.add(0, 0.1); a.add(0, 0.2); a.add(1, -1e-300); a.add(2, Double.NaN); a.add(3, 1e300)
    val bytes = new java.io.ByteArrayOutputStream
    val out   = new java.io.ObjectOutputStream(bytes)
    out.writeObject(a); out.close()
    val b = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[AtomicDoubleArray]
    b.length shouldBe a.length
    for (i <- 0 until a.length)
      java.lang.Double.doubleToRawLongBits(b.get(i)) shouldBe java.lang.Double.doubleToRawLongBits(a.get(i))
  }
}

class PrimitiveMapsSpec extends AnyFunSuite with Matchers {

  test("IntDoubleMap addTo accumulates") {
    val m = new IntDoubleMap(100)
    m.addTo(7, 1.5); m.addTo(7, 2.5); m.addTo(3, 1.0)
    m.getOrElse(7, 0) shouldBe 4.0
    m.getOrElse(3, 0) shouldBe 1.0
    m.getOrElse(99, -1) shouldBe -1.0
    m.size shouldBe 2
  }

  test("IntDoubleMap grows past initial capacity") {
    val m = new IntDoubleMap(1000)
    (0 until 1000).foreach(i => m.addTo(i, i.toDouble))
    m.size shouldBe 1000
    (0 until 1000).foreach(i => m.getOrElse(i, -1) shouldBe i.toDouble)
  }

  test("IntDoubleMap clear resets in O(entries)") {
    val m = new IntDoubleMap(100)
    (0 until 100).foreach(i => m.addTo(i, 1.0))
    m.clear()
    m.size shouldBe 0
    m.getOrElse(5, -1) shouldBe -1.0
    m.addTo(5, 2.0)
    m.getOrElse(5, -1) shouldBe 2.0
  }

  test("IntDoubleMap keyAt/valueAt visit every entry in insertion order") {
    val m = new IntDoubleMap(150)
    (0 until 50).foreach(i => m.addTo(i * 3, i.toDouble))
    m.size shouldBe 50
    (0 until m.size).map(e => (m.keyAt(e), m.valueAt(e))) shouldBe
      (0 until 50).map(i => (i * 3, i.toDouble))
  }

  test("IntDoubleMap holds the first and last keys of its universe") {
    val m = new IntDoubleMap(10)
    m.addTo(9, 1.5); m.addTo(0, 2.0); m.addTo(9, 0.25)
    m.size shouldBe 2
    (0 until m.size).map(e => (m.keyAt(e), m.valueAt(e))) shouldBe Seq((9, 1.75), (0, 2.0))
    m.clear()
    m.getOrElse(0, -1) shouldBe -1.0
    m.getOrElse(9, -1) shouldBe -1.0
  }

  test("IntDoubleMap keeps a key whose values sum to 0.0, in its position") {
    val m = new IntDoubleMap(8)
    m.addTo(4, 0.5); m.addTo(2, 1.0); m.addTo(4, -0.5); m.addTo(6, 3.0)
    m.size shouldBe 3
    m.getOrElse(4, -1) shouldBe 0.0
    (0 until m.size).map(e => (m.keyAt(e), m.valueAt(e))) shouldBe Seq((4, 0.0), (2, 1.0), (6, 3.0))
  }
}
