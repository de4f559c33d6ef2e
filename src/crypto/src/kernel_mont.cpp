// BMI2/ADX Montgomery CIOS kernels: the ISA-extension tier of Section 4.1
// applied to the library's own modular multiply. Each row of CIOS adds
// a_i * b (then m * n) to the accumulator with `mulx`, which leaves the
// flags alone, and two independent carry chains: `adox` adds each
// product's low word (OF chain) while `adcx` adds the previous product's
// high word (CF chain). GCC does not emit adcx/adox from `unsigned
// __int128` code (it serialises everything through one `adc` chain and
// keeps the accumulator in memory), so the rows are inline assembly.
//
//  * 4 and 8 limbs (256/512-bit moduli: RSA-512 CRT halves and Miller-
//    Rabin, RSA-512 public and RSA-1024 CRT halves) keep the whole
//    kw + 2 word accumulator in registers for the entire multiply. Each
//    row's reduction zeroes the accumulator's low register, which then
//    becomes the next row's top word, so the register names rotate by one
//    per row and no word is shifted.
//  * 16 and 32 limbs run one assembly row per a_i over an accumulator in
//    memory, with the same two-chain steps.
//
// Other widths have no kernel here and use mont_cios_w64_scalar. Every
// kernel produces the pre-subtraction REDC value in t[0..kw] and zeroes
// t[kw+1], exactly as the scalar kernel does; the caller owns the final
// conditional subtraction, so the timing-attack-visible extra-reduction
// behaviour cannot differ between backends.
#include "kernels.hpp"

namespace mapsec::crypto::dispatch {

#if defined(__x86_64__) && defined(__BMI2__) && defined(__ADX__)

namespace {

using u64 = std::uint64_t;

// ---- register-resident kernels (4 and 8 limbs) ----------------------------
//
// rdx holds the row multiplier (a_i, then m), rax/rbx a product's low and
// high words. STEP adds lo(rdx * SRC) to TJ on the OF chain and
// hi(rdx * SRC) to TJ1 on the CF chain. TAIL folds both chains' carries
// into the top two words (X is zero at row start; mov leaves the flags).
#define MONT_STEP(SRC, TJ, TJ1)                  \
  "mulxq " SRC ", %%rax, %%rbx\n\t"              \
  "adoxq %%rax, %%" TJ "\n\t"                    \
  "adcxq %%rbx, %%" TJ1 "\n\t"

#define MONT_TAIL(TK, X)                         \
  "movl $0, %%eax\n\t"                           \
  "adoxq %%rax, %%" TK "\n\t"                    \
  "adcxq %%rax, %%" X "\n\t"                     \
  "adoxq %%rax, %%" X "\n\t"

// m = t0 * n0inv mod 2^64 into rdx; xor clears CF and OF for the chains.
#define MONT_M(T0, N0)                           \
  "movq %%" T0 ", %%rdx\n\t"                     \
  "imulq " N0 ", %%rdx\n\t"                      \
  "xorl %%eax, %%eax\n\t"

#define MONT_PASS4(P, T0, T1, T2, T3, T4, X)     \
  MONT_STEP("0(" P ")", T0, T1)                  \
  MONT_STEP("8(" P ")", T1, T2)                  \
  MONT_STEP("16(" P ")", T2, T3)                 \
  MONT_STEP("24(" P ")", T3, T4)                 \
  MONT_TAIL(T4, X)

// One CIOS row at 4 limbs: t += a_i * b; t += m * n; the zeroed T0 is
// the next row's top word.
#define MONT_ROW4(I, T0, T1, T2, T3, T4, X)          \
  "movq 8*" #I "(%[a]), %%rdx\n\t"                   \
  "xorl %%eax, %%eax\n\t"                            \
  MONT_PASS4("%[b]", T0, T1, T2, T3, T4, X)          \
  MONT_M(T0, "%[n0]")                                \
  MONT_PASS4("%[n]", T0, T1, T2, T3, T4, X)

void cios_adx4(const u64* a, const u64* b, const u64* n, u64 n0inv, u64* t,
               std::size_t /*kw*/) {
  __asm__ volatile(
      "xorl %%r8d, %%r8d\n\t"
      "xorl %%r9d, %%r9d\n\t"
      "xorl %%r10d, %%r10d\n\t"
      "xorl %%r11d, %%r11d\n\t"
      "xorl %%r12d, %%r12d\n\t"
      "xorl %%r13d, %%r13d\n\t"
      MONT_ROW4(0, "r8", "r9", "r10", "r11", "r12", "r13")
      MONT_ROW4(1, "r9", "r10", "r11", "r12", "r13", "r8")
      MONT_ROW4(2, "r10", "r11", "r12", "r13", "r8", "r9")
      MONT_ROW4(3, "r11", "r12", "r13", "r8", "r9", "r10")
      "movq %%r12, 0(%[t])\n\t"
      "movq %%r13, 8(%[t])\n\t"
      "movq %%r8, 16(%[t])\n\t"
      "movq %%r9, 24(%[t])\n\t"
      "movq %%r10, 32(%[t])\n\t"
      "movq %%r11, 40(%[t])\n\t"  // the zeroed spare: t[kw+1] = 0
      :
      : [a] "r"(a), [b] "r"(b), [n] "r"(n), [n0] "r"(n0inv), [t] "r"(t)
      : "rax", "rbx", "rdx", "r8", "r9", "r10", "r11", "r12", "r13", "cc",
        "memory");
}

// At 8 limbs the ten accumulator words, rdx, rax and rbx take thirteen of
// the fourteen general registers that remain when rbp is the frame
// pointer. The operand pointers and n0inv therefore wait in xmm
// registers and pass through rdi, the one pointer register, at each row
// and pass boundary.
#define MONT_PASS8(T0, T1, T2, T3, T4, T5, T6, T7, T8, X)  \
  MONT_STEP("0(%%rdi)", T0, T1)                             \
  MONT_STEP("8(%%rdi)", T1, T2)                             \
  MONT_STEP("16(%%rdi)", T2, T3)                            \
  MONT_STEP("24(%%rdi)", T3, T4)                            \
  MONT_STEP("32(%%rdi)", T4, T5)                            \
  MONT_STEP("40(%%rdi)", T5, T6)                            \
  MONT_STEP("48(%%rdi)", T6, T7)                            \
  MONT_STEP("56(%%rdi)", T7, T8)                            \
  MONT_TAIL(T8, X)

#define MONT_ROW8(I, T0, T1, T2, T3, T4, T5, T6, T7, T8, X)  \
  "movq %[a], %%rdi\n\t"                                      \
  "movq 8*" #I "(%%rdi), %%rdx\n\t"                           \
  "movq %[b], %%rdi\n\t"                                      \
  "xorl %%eax, %%eax\n\t"                                     \
  MONT_PASS8(T0, T1, T2, T3, T4, T5, T6, T7, T8, X)           \
  "movq %[n0], %%rbx\n\t"                                     \
  "movq %[n], %%rdi\n\t"                                      \
  MONT_M(T0, "%%rbx")                                         \
  MONT_PASS8(T0, T1, T2, T3, T4, T5, T6, T7, T8, X)

void cios_adx8(const u64* a, const u64* b, const u64* n, u64 n0inv, u64* t,
               std::size_t /*kw*/) {
  // Ring order of the accumulator registers; row i's word j sits in
  // ring[(i + j) % 10].
  __asm__ volatile(
      "xorl %%r8d, %%r8d\n\t"
      "xorl %%r9d, %%r9d\n\t"
      "xorl %%r10d, %%r10d\n\t"
      "xorl %%r11d, %%r11d\n\t"
      "xorl %%r12d, %%r12d\n\t"
      "xorl %%r13d, %%r13d\n\t"
      "xorl %%r14d, %%r14d\n\t"
      "xorl %%r15d, %%r15d\n\t"
      "xorl %%ecx, %%ecx\n\t"
      "xorl %%esi, %%esi\n\t"
      MONT_ROW8(0, "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
                "rcx", "rsi")
      MONT_ROW8(1, "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rcx",
                "rsi", "r8")
      MONT_ROW8(2, "r10", "r11", "r12", "r13", "r14", "r15", "rcx", "rsi",
                "r8", "r9")
      MONT_ROW8(3, "r11", "r12", "r13", "r14", "r15", "rcx", "rsi", "r8",
                "r9", "r10")
      MONT_ROW8(4, "r12", "r13", "r14", "r15", "rcx", "rsi", "r8", "r9",
                "r10", "r11")
      MONT_ROW8(5, "r13", "r14", "r15", "rcx", "rsi", "r8", "r9", "r10",
                "r11", "r12")
      MONT_ROW8(6, "r14", "r15", "rcx", "rsi", "r8", "r9", "r10", "r11",
                "r12", "r13")
      MONT_ROW8(7, "r15", "rcx", "rsi", "r8", "r9", "r10", "r11", "r12",
                "r13", "r14")
      "movq %[t], %%rdi\n\t"
      "movq %%rcx, 0(%%rdi)\n\t"
      "movq %%rsi, 8(%%rdi)\n\t"
      "movq %%r8, 16(%%rdi)\n\t"
      "movq %%r9, 24(%%rdi)\n\t"
      "movq %%r10, 32(%%rdi)\n\t"
      "movq %%r11, 40(%%rdi)\n\t"
      "movq %%r12, 48(%%rdi)\n\t"
      "movq %%r13, 56(%%rdi)\n\t"
      "movq %%r14, 64(%%rdi)\n\t"
      "movq %%r15, 72(%%rdi)\n\t"  // the zeroed spare: t[kw+1] = 0
      :
      : [a] "x"(a), [b] "x"(b), [n] "x"(n), [n0] "x"(n0inv), [t] "x"(t)
      : "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11",
        "r12", "r13", "r14", "r15", "cc", "memory");
}

#undef MONT_ROW8
#undef MONT_PASS8
#undef MONT_ROW4
#undef MONT_PASS4

// ---- row kernels over a memory accumulator (16 and 32 limbs) --------------
//
// One step for limb J: lo(rdx * SRC[J]) + t[J] on the OF chain, plus the
// previous step's high word HP on the CF chain, stored to t[OUT]; the
// high word goes to H. r8 and r9 alternate as H/HP, and HP starts at zero,
// so step 0 needs no special case. rcx is zero throughout.
#define MONT_MSTEP(J, OUT, H, HP)                      \
  "mulxq 8*(" #J ")(%[src]), %%rax, %%" H "\n\t"        \
  "adoxq 8*(" #J ")(%[t]), %%rax\n\t"                   \
  "adcxq %%" HP ", %%rax\n\t"                           \
  "movq %%rax, 8*(" #OUT ")(%[t])\n\t"

#define MONT_MSTEP2(J, D) \
  MONT_MSTEP(J, J - D, "r8", "r9") MONT_MSTEP(J + 1, J + 1 - D, "r9", "r8")
#define MONT_MSTEP8(J, D)                                              \
  MONT_MSTEP2(J, D) MONT_MSTEP2(J + 2, D) MONT_MSTEP2(J + 4, D)         \
  MONT_MSTEP2(J + 6, D)
#define MONT_MSTEP16(J, D) MONT_MSTEP8(J, D) MONT_MSTEP8(J + 8, D)
#define MONT_MSTEP32(J, D) MONT_MSTEP16(J, D) MONT_MSTEP16(J + 16, D)

// Pass-entry: zero rcx and r9 (xor also clears CF and OF).
#define MONT_MSTART "xorl %%ecx, %%ecx\n\t" "xorl %%r9d, %%r9d\n\t"

// t[0..K+1] += a_i * b, with t[K+1] = 0 on entry.
#define MONT_MPASS1(K, STEPS)                           \
  MONT_MSTART STEPS(0, 0)                               \
  "movq 8*" #K "(%[t]), %%rax\n\t"                      \
  "adcxq %%r9, %%rax\n\t"                               \
  "adoxq %%rcx, %%rax\n\t"                              \
  "movq %%rax, 8*" #K "(%[t])\n\t"                      \
  "movl $0, %%eax\n\t"                                  \
  "adcxq %%rcx, %%rax\n\t"                              \
  "adoxq %%rcx, %%rax\n\t"                              \
  "movq %%rax, 8*" #K "+8(%[t])\n\t"

// t = (t + m * n) / 2^64: every result word lands one slot lower (step 0
// writes its zero word to the guard slot t[-1]), and t[K+1] is cleared.
#define MONT_MPASS2(K, STEPS)                           \
  MONT_MSTART STEPS(0, 1)                               \
  "movq 8*" #K "(%[t]), %%rax\n\t"                      \
  "adcxq %%r9, %%rax\n\t"                               \
  "adoxq %%rcx, %%rax\n\t"                              \
  "movq %%rax, 8*" #K "-8(%[t])\n\t"                    \
  "movq 8*" #K "+8(%[t]), %%rax\n\t"                    \
  "adcxq %%rcx, %%rax\n\t"                              \
  "adoxq %%rcx, %%rax\n\t"                              \
  "movq %%rax, 8*" #K "(%[t])\n\t"                      \
  "movq %%rcx, 8*" #K "+8(%[t])\n\t"

// One pass of one row: rdx = MUL, the source limbs at SRC.
#define MONT_MPASS_ASM(PASS, K, SRC, MUL)                         \
  __asm__ volatile(PASS(K, MONT_MSTEP##K)                         \
                   :                                              \
                   : "d"(MUL), [src] "r"(SRC), [t] "r"(tt)        \
                   : "rax", "rcx", "r8", "r9", "cc", "memory")

template <std::size_t KW>
void cios_adx_rows(const u64* a, const u64* b, const u64* n, u64 n0inv,
                   u64* t, std::size_t /*kw*/) {
  static_assert(KW == 16 || KW == 32);
  // acc[0] is the guard slot pass 2's first step writes; the accumulator
  // proper is acc[1..KW+2].
  u64 acc[KW + 3] = {};
  u64* tt = acc + 1;
  for (std::size_t i = 0; i < KW; ++i) {
    if constexpr (KW == 16) {
      MONT_MPASS_ASM(MONT_MPASS1, 16, b, a[i]);
      MONT_MPASS_ASM(MONT_MPASS2, 16, n, tt[0] * n0inv);
    } else {
      MONT_MPASS_ASM(MONT_MPASS1, 32, b, a[i]);
      MONT_MPASS_ASM(MONT_MPASS2, 32, n, tt[0] * n0inv);
    }
  }
  for (std::size_t j = 0; j < KW + 2; ++j) t[j] = tt[j];
}

#undef MONT_MPASS_ASM
#undef MONT_MPASS2
#undef MONT_MPASS1
#undef MONT_MSTART
#undef MONT_MSTEP32
#undef MONT_MSTEP16
#undef MONT_MSTEP8
#undef MONT_MSTEP2
#undef MONT_MSTEP
#undef MONT_M
#undef MONT_TAIL
#undef MONT_STEP

}  // namespace

MontCiosFn mont_cios_adx(std::size_t kw) {
  switch (kw) {
    case 4: return cios_adx4;
    case 8: return cios_adx8;
    case 16: return cios_adx_rows<16>;
    case 32: return cios_adx_rows<32>;
    default: return nullptr;
  }
}
const bool kHaveMontAdx = true;

#else

MontCiosFn mont_cios_adx(std::size_t) { return nullptr; }
const bool kHaveMontAdx = false;

#endif

}  // namespace mapsec::crypto::dispatch
