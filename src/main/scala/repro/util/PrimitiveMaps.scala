package repro.util

/** Open-addressing int→double map with O(used) clear, for the per-vertex
  * "edge weight to each neighboring cluster" aggregation in the Louvain inner
  * loop. One instance is reused per thread (allocation-free steady state).
  */
final class IntDoubleMap(initialCapacity: Int = 16) {
  private var cap               = Integer.highestOneBit(math.max(16, initialCapacity) * 2 - 1) << 1
  private var mask              = cap - 1
  private var keys: Array[Int]  = Array.fill(cap)(-1)
  private var vals: Array[Double] = new Array[Double](cap)
  private var used: Array[Int]  = new Array[Int](cap) // slots to reset on clear
  private var nUsed             = 0

  def size: Int = nUsed

  private def grow(): Unit = {
    val oldKeys = keys; val oldVals = vals; val oldUsed = used; val oldN = nUsed
    cap <<= 1; mask = cap - 1
    keys = Array.fill(cap)(-1); vals = new Array[Double](cap); used = new Array[Int](cap)
    nUsed = 0
    var i = 0
    while (i < oldN) { addTo(oldKeys(oldUsed(i)), oldVals(oldUsed(i))); i += 1 }
  }

  /** Add `v` to the value stored for `k` (inserting 0-initialised if absent). */
  def addTo(k: Int, v: Double): Unit = {
    if (nUsed * 2 >= cap) grow()
    var i = (scala.util.hashing.byteswap32(k)) & mask
    while (true) {
      val kk = keys(i)
      if (kk == k) { vals(i) += v; return }
      if (kk == -1) { keys(i) = k; vals(i) = v; used(nUsed) = i; nUsed += 1; return }
      i = (i + 1) & mask
    }
  }

  def getOrElse(k: Int, default: Double): Double = {
    var i = (scala.util.hashing.byteswap32(k)) & mask
    while (true) {
      val kk = keys(i)
      if (kk == k) return vals(i)
      if (kk == -1) return default
      i = (i + 1) & mask
    }
    default
  }

  /** Key of the `i`-th inserted entry, 0 ≤ i < size (insertion order). */
  def keyAt(i: Int): Int = keys(used(i))

  /** Value of the `i`-th inserted entry, 0 ≤ i < size (insertion order). */
  def valueAt(i: Int): Double = vals(used(i))

  /** Iterate entries (arbitrary order). */
  def foreachEntry(f: (Int, Double) => Unit): Unit = {
    var i = 0
    while (i < nUsed) { val s = used(i); f(keys(s), vals(s)); i += 1 }
  }

  /** Reset to empty in O(entries). */
  def clear(): Unit = {
    var i = 0
    while (i < nUsed) { keys(used(i)) = -1; i += 1 }
    nUsed = 0
  }
}

/** Open-addressing long→double map keyed by packed (u, v) pairs, for
  * triangle counting and brute-force objective checks. Growable.
  */
final class LongDoubleMap(initialCapacity: Int = 64) {
  private var cap                 = Integer.highestOneBit(math.max(16, initialCapacity) * 2 - 1) << 1
  private var mask                = cap - 1
  private var keys: Array[Long]   = Array.fill(cap)(-1L)
  private var vals: Array[Double] = new Array[Double](cap)
  private var n                   = 0

  def size: Int = n

  private def idx(k: Long): Int = {
    // 64->32 bit mix (splitmix-style) then mask
    var h = k * -7046029254386353131L
    h ^= h >>> 32
    (h.toInt) & mask
  }

  private def grow(): Unit = {
    val oldKeys = keys; val oldVals = vals
    cap <<= 1; mask = cap - 1
    keys = Array.fill(cap)(-1L); vals = new Array[Double](cap); n = 0
    var i = 0
    while (i < oldKeys.length) {
      if (oldKeys(i) != -1L) addTo(oldKeys(i), oldVals(i))
      i += 1
    }
  }

  /** Keys must be >= 0 (−1 is the empty sentinel). */
  def addTo(k: Long, v: Double): Unit = {
    require(k >= 0, "LongDoubleMap keys must be non-negative")
    if (n * 2 >= cap) grow()
    var i = idx(k)
    while (true) {
      val kk = keys(i)
      if (kk == k) { vals(i) += v; return }
      if (kk == -1L) { keys(i) = k; vals(i) = v; n += 1; return }
      i = (i + 1) & mask
    }
  }

  def getOrElse(k: Long, default: Double): Double = {
    var i = idx(k)
    while (true) {
      val kk = keys(i)
      if (kk == k) return vals(i)
      if (kk == -1L) return default
      i = (i + 1) & mask
    }
    default
  }
}
