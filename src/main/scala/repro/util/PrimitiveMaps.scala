package repro.util

/** Open-addressing int→double map with O(used) clear: the edge weight from
  * one vertex (BEST-MOVES, SCD) or one cluster (compression) to each
  * neighboring cluster. One instance is reused per thread (allocation-free
  * steady state); entries are read back in insertion order with `keyAt` and
  * `valueAt`.
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

  /** Reset to empty in O(entries). */
  def clear(): Unit = {
    var i = 0
    while (i < nUsed) { keys(used(i)) = -1; i += 1 }
    nUsed = 0
  }
}
