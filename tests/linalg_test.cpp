#include "tensor/linalg.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace ranm {
namespace {

TEST(Linalg, MatvecTIsTransposeProduct) {
  Rng rng(5);
  Tensor a = Tensor::random_uniform({5, 7}, rng);
  Tensor x = Tensor::random_uniform({5}, rng);
  Tensor y = matvec_t(a, x);
  ASSERT_EQ(y.numel(), 7U);
  for (std::size_t p = 0; p < 7; ++p) {
    double expected = 0.0;
    for (std::size_t i = 0; i < 5; ++i) expected += double(a(i, p)) * x[i];
    EXPECT_NEAR(y[p], expected, 1e-4);
  }
  EXPECT_THROW((void)matvec_t(a, Tensor({7})), std::invalid_argument);
}

TEST(Linalg, Outer) {
  Tensor x = Tensor::vector({1, 2});
  Tensor y = Tensor::vector({3, 4, 5});
  Tensor m = outer(x, y);
  ASSERT_EQ(m.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(m(0, 2), 5.0F);
  EXPECT_FLOAT_EQ(m(1, 0), 6.0F);
}

}  // namespace
}  // namespace ranm
