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
}

class PrimitiveMapsSpec extends AnyFunSuite with Matchers {

  test("IntDoubleMap addTo accumulates") {
    val m = new IntDoubleMap(4)
    m.addTo(7, 1.5); m.addTo(7, 2.5); m.addTo(3, 1.0)
    m.getOrElse(7, 0) shouldBe 4.0
    m.getOrElse(3, 0) shouldBe 1.0
    m.getOrElse(99, -1) shouldBe -1.0
    m.size shouldBe 2
  }

  test("IntDoubleMap grows past initial capacity") {
    val m = new IntDoubleMap(2)
    (0 until 1000).foreach(i => m.addTo(i, i.toDouble))
    m.size shouldBe 1000
    (0 until 1000).foreach(i => m.getOrElse(i, -1) shouldBe i.toDouble)
  }

  test("IntDoubleMap clear resets in O(entries)") {
    val m = new IntDoubleMap(8)
    (0 until 100).foreach(i => m.addTo(i, 1.0))
    m.clear()
    m.size shouldBe 0
    m.getOrElse(5, -1) shouldBe -1.0
    m.addTo(5, 2.0)
    m.getOrElse(5, -1) shouldBe 2.0
  }

  test("IntDoubleMap keyAt/valueAt visit every entry in insertion order") {
    val m = new IntDoubleMap(4)
    (0 until 50).foreach(i => m.addTo(i * 3, i.toDouble))
    m.size shouldBe 50
    (0 until m.size).map(e => (m.keyAt(e), m.valueAt(e))) shouldBe
      (0 until 50).map(i => (i * 3, i.toDouble))
  }
}
