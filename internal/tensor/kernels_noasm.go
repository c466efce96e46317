//go:build !amd64 || purego

package tensor

func saxpy(alpha float64, x, y []float64) { saxpyGo(alpha, x, y) }

func scale(alpha float64, x, y []float64) { scaleGo(alpha, x, y) }

func mulTransB(dst, a, b []float64, rows, n, k int) { mulTransBGo(dst, a, b, rows, n, k) }

func mulTransA(dst, a, b []float64, rows, n, k, lda int) { mulTransAGo(dst, a, b, rows, n, k, lda) }

func adam(val, grad, m, v []float64, h *adamHyper) { adamGo(val, grad, m, v, h) }

func rowMul(dst, x []float64, rows []int, w []float64) { rowMulGo(dst, x, rows, w) }

func exp(dst, x []float64) { expGo(dst, x) }

func log(dst, x []float64) { logGo(dst, x) }

func tanh(dst, x []float64) { tanhGo(dst, x) }
