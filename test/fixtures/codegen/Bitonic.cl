/* streamit_gpu artifact (opencl)
 * quality: heuristic (completed)
 * II: 9011 (lower bound 9011, binding no_wrap)
 * schedule signature: 247dd07badbc6fc1ccf635d65da9d027
 * program-scope __global state requires OpenCL C 2.0
 */

static inline int region_0(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_1(int it) { return ((it % 17) + 17) % 17 * 4096; }
static inline int region_2(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_3(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_4(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_5(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_6(int it) { return ((it % 17) + 17) % 17 * 2048; }
static inline int region_7(int it) { return ((it % 17) + 17) % 17 * 4096; }
static inline int region_8(int it) { return ((it % 17) + 17) % 17 * 2048; }
static inline int region_9(int it) { return ((it % 17) + 17) % 17 * 2048; }
static inline int region_10(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_11(int it) { return ((it % 17) + 17) % 17 * 4096; }
static inline int region_12(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_13(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_14(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_15(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_16(int it) { return ((it % 17) + 17) % 17 * 4096; }
static inline int region_17(int it) { return ((it % 17) + 17) % 17 * 2048; }
static inline int region_18(int it) { return ((it % 17) + 17) % 17 * 4096; }
static inline int region_19(int it) { return ((it % 17) + 17) % 17 * 2048; }
static inline int region_20(int it) { return ((it % 17) + 17) % 17 * 2048; }
static inline int region_21(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_22(int it) { return ((it % 17) + 17) % 17 * 0; }
static inline int region_23(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_24(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_25(int it) { return ((it % 17) + 17) % 17 * 1024; }
static inline int region_26(int it) { return ((it % 17) + 17) % 17 * 1024; }

static void work_split_stage_p1_d1(__global const float* in, __global float* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  float _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t1; _push++;
  float _t2 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t2; _push++;
  float _t3 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t3; _push++;
  float _t4 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t4; _push++;
  float _t5 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t5; _push++;
  float _t6 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t6; _push++;
  float _t7 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t7; _push++;
  float _t8 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t8; _push++;
  (void)_pop; (void)_push;
}

static void work_join_stage_p1_d1(__global const float* in, __global float* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  float _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t1; _push++;
  float _t2 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t2; _push++;
  float _t3 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t3; _push++;
  float _t4 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t4; _push++;
  float _t5 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t5; _push++;
  float _t6 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t6; _push++;
  float _t7 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t7; _push++;
  float _t8 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t8; _push++;
  (void)_pop; (void)_push;
}

static void work_CEp1_b0_d1_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = min(a, b);
    w[(j + 1)] = max(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp1_b1_d1_desc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = max(a, b);
    w[(j + 1)] = min(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp1_b2_d1_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = min(a, b);
    w[(j + 1)] = max(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp1_b3_d1_desc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = max(a, b);
    w[(j + 1)] = min(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_split_stage_p2_d2(__global const float* in, __global float* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  float _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t1; _push++;
  float _t2 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t2; _push++;
  float _t3 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t3; _push++;
  float _t4 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t4; _push++;
  float _t5 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t5; _push++;
  float _t6 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t6; _push++;
  float _t7 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t7; _push++;
  float _t8 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t8; _push++;
  (void)_pop; (void)_push;
}

static void work_join_stage_p2_d2(__global const float* in, __global float* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  float _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t1; _push++;
  float _t2 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t2; _push++;
  float _t3 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t3; _push++;
  float _t4 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t4; _push++;
  float _t5 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t5; _push++;
  float _t6 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t6; _push++;
  float _t7 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t7; _push++;
  float _t8 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t8; _push++;
  (void)_pop; (void)_push;
}

static void work_CEp2_b0_d2_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[4] = {0};
  for (int j = 0; j < 4; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 4 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 2; j++) {
    int a = w[j];
    int b = w[(j + 2)];
    w[j] = min(a, b);
    w[(j + 2)] = max(a, b);
  }
  for (int j = 0; j < 4; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 4 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp2_b1_d2_desc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[4] = {0};
  for (int j = 0; j < 4; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 4 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 2; j++) {
    int a = w[j];
    int b = w[(j + 2)];
    w[j] = max(a, b);
    w[(j + 2)] = min(a, b);
  }
  for (int j = 0; j < 4; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 4 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_split_stage_p2_d1(__global const float* in, __global float* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  float _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t1; _push++;
  float _t2 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t2; _push++;
  float _t3 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t3; _push++;
  float _t4 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t4; _push++;
  float _t5 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t5; _push++;
  float _t6 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t6; _push++;
  float _t7 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t7; _push++;
  float _t8 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t8; _push++;
  (void)_pop; (void)_push;
}

static void work_join_stage_p2_d1(__global const float* in, __global float* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  float _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t1; _push++;
  float _t2 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t2; _push++;
  float _t3 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t3; _push++;
  float _t4 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t4; _push++;
  float _t5 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t5; _push++;
  float _t6 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t6; _push++;
  float _t7 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t7; _push++;
  float _t8 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t8; _push++;
  (void)_pop; (void)_push;
}

static void work_CEp2_b0_d1_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = min(a, b);
    w[(j + 1)] = max(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp2_b1_d1_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = min(a, b);
    w[(j + 1)] = max(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp2_b2_d1_desc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = max(a, b);
    w[(j + 1)] = min(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp2_b3_d1_desc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = max(a, b);
    w[(j + 1)] = min(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp3_d4_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[8] = {0};
  for (int j = 0; j < 8; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 4; j++) {
    int a = w[j];
    int b = w[(j + 4)];
    w[j] = min(a, b);
    w[(j + 4)] = max(a, b);
  }
  for (int j = 0; j < 8; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_split_stage_p3_d2(__global const float* in, __global float* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  float _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t1; _push++;
  float _t2 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t2; _push++;
  float _t3 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t3; _push++;
  float _t4 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t4; _push++;
  float _t5 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t5; _push++;
  float _t6 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t6; _push++;
  float _t7 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t7; _push++;
  float _t8 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t8; _push++;
  (void)_pop; (void)_push;
}

static void work_join_stage_p3_d2(__global const float* in, __global float* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  float _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t1; _push++;
  float _t2 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t2; _push++;
  float _t3 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t3; _push++;
  float _t4 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t4; _push++;
  float _t5 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t5; _push++;
  float _t6 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t6; _push++;
  float _t7 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t7; _push++;
  float _t8 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t8; _push++;
  (void)_pop; (void)_push;
}

static void work_CEp3_b0_d2_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[4] = {0};
  for (int j = 0; j < 4; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 4 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 2; j++) {
    int a = w[j];
    int b = w[(j + 2)];
    w[j] = min(a, b);
    w[(j + 2)] = max(a, b);
  }
  for (int j = 0; j < 4; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 4 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp3_b1_d2_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[4] = {0};
  for (int j = 0; j < 4; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 4 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 2; j++) {
    int a = w[j];
    int b = w[(j + 2)];
    w[j] = min(a, b);
    w[(j + 2)] = max(a, b);
  }
  for (int j = 0; j < 4; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 4 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_split_stage_p3_d1(__global const float* in, __global float* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  float _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t1; _push++;
  float _t2 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t2; _push++;
  float _t3 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t3; _push++;
  float _t4 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t4; _push++;
  float _t5 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t5; _push++;
  float _t6 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t6; _push++;
  float _t7 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t7; _push++;
  float _t8 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t8; _push++;
  (void)_pop; (void)_push;
}

static void work_join_stage_p3_d1(__global const float* in, __global float* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  float _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t1; _push++;
  float _t2 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t2; _push++;
  float _t3 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t3; _push++;
  float _t4 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t4; _push++;
  float _t5 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t5; _push++;
  float _t6 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t6; _push++;
  float _t7 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t7; _push++;
  float _t8 = in[(128 * (_pop) + (tid / 128) * 128 * 8 + (tid % 128))]; _pop++;
  out[(128 * (_push) + (tid / 128) * 128 * 8 + (tid % 128))] = _t8; _push++;
  (void)_pop; (void)_push;
}

static void work_CEp3_b0_d1_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = min(a, b);
    w[(j + 1)] = max(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp3_b1_d1_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = min(a, b);
    w[(j + 1)] = max(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp3_b2_d1_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = min(a, b);
    w[(j + 1)] = max(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

static void work_CEp3_b3_d1_asc(__global const int* in, __global int* out, int tid)
{
  int _pop = 0;
  int _push = 0;
  int w[2] = {0};
  for (int j = 0; j < 2; j++) {
    int _t1 = in[(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))]; _pop++;
    w[j] = _t1;
  }
  for (int j = 0; j < 1; j++) {
    int a = w[j];
    int b = w[(j + 1)];
    w[j] = min(a, b);
    w[(j + 1)] = max(a, b);
  }
  for (int j = 0; j < 2; j++) {
    out[(128 * (_push) + (tid / 128) * 128 * 2 + (tid % 128))] = w[j]; _push++;
  }
  (void)_pop; (void)_push;
}

__kernel void swp_kernel(__global float* buf_0_0__2_0, __global float* buf_2_0__1_0, __global float* buf_0_1__3_0, __global float* buf_3_0__1_1, __global float* buf_0_2__4_0, __global float* buf_4_0__1_2, __global float* buf_0_3__5_0, __global float* buf_5_0__1_3, __global float* buf_6_0__8_0, __global float* buf_8_0__7_0, __global float* buf_6_1__9_0, __global float* buf_9_0__7_1, __global float* buf_10_0__12_0, __global float* buf_12_0__11_0, __global float* buf_10_1__13_0, __global float* buf_13_0__11_1, __global float* buf_10_2__14_0, __global float* buf_14_0__11_2, __global float* buf_10_3__15_0, __global float* buf_15_0__11_3, __global float* buf_17_0__19_0, __global float* buf_19_0__18_0, __global float* buf_17_1__20_0, __global float* buf_20_0__18_1, __global float* buf_21_0__23_0, __global float* buf_23_0__22_0, __global float* buf_21_1__24_0, __global float* buf_24_0__22_1, __global float* buf_21_2__25_0, __global float* buf_25_0__22_2, __global float* buf_21_3__26_0, __global float* buf_26_0__22_3, __global float* buf_1_0__6_0, __global float* buf_7_0__10_0, __global float* buf_11_0__16_0, __global float* buf_16_0__17_0, __global float* buf_18_0__21_0, __global const float* stream_in, __global float* stream_out, int iterations)
{
  int tid = (int)get_local_id(0);
  int sm = (int)get_group_id(0);
  /* staging predicates, one per pipeline stage (depth 16) */
  __local int stage_on[16];
  if (tid == 0) for (int s = 0; s < 16; s++) stage_on[s] = 0;
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int it = 0; it < iterations + 16; it++) {
    if (tid == 0) { for (int s = 15; s > 0; s--) stage_on[s] = stage_on[s-1]; stage_on[0] = (it < iterations); }
    barrier(CLK_LOCAL_MEM_FENCE);
    switch (sm) {
    case 0: {
      /* (CEp3_d4_asc, k=0) o=0 f=9 threads=512 */
      if (stage_on[9] && tid < 512)
        work_CEp3_d4_asc(buf_11_0__16_0 + region_16(it - 9), buf_16_0__17_0 + region_16(it - 9), tid);
      break; }
    case 1: {
      /* (CEp2_b0_d2_asc, k=0) o=0 f=4 threads=512 */
      if (stage_on[4] && tid < 512)
        work_CEp2_b0_d2_asc(buf_6_0__8_0 + region_8(it - 4), buf_8_0__7_0 + region_8(it - 4), tid);
      /* (split_stage_p1_d1, k=0) o=0 f=0 threads=512 */
      if (stage_on[0] && tid < 512)
        work_split_stage_p1_d1(stream_in + region_0(it - 0), buf_0_0__2_0 + region_0(it - 0), tid);
      break; }
    case 2: {
      /* (CEp2_b1_d2_desc, k=0) o=0 f=4 threads=512 */
      if (stage_on[4] && tid < 512)
        work_CEp2_b1_d2_desc(buf_6_1__9_0 + region_9(it - 4), buf_9_0__7_1 + region_9(it - 4), tid);
      /* (join_stage_p1_d1, k=0) o=0 f=2 threads=512 */
      if (stage_on[2] && tid < 512)
        work_join_stage_p1_d1(buf_2_0__1_0 + region_1(it - 2), buf_1_0__6_0 + region_1(it - 2), tid);
      break; }
    case 3: {
      /* (CEp3_b0_d2_asc, k=0) o=0 f=11 threads=512 */
      if (stage_on[11] && tid < 512)
        work_CEp3_b0_d2_asc(buf_17_0__19_0 + region_19(it - 11), buf_19_0__18_0 + region_19(it - 11), tid);
      /* (CEp1_b0_d1_asc, k=0) o=0 f=1 threads=512 */
      if (stage_on[1] && tid < 512)
        work_CEp1_b0_d1_asc(buf_0_0__2_0 + region_2(it - 1), buf_2_0__1_0 + region_2(it - 1), tid);
      break; }
    case 4: {
      /* (CEp3_b1_d2_asc, k=0) o=0 f=11 threads=512 */
      if (stage_on[11] && tid < 512)
        work_CEp3_b1_d2_asc(buf_17_1__20_0 + region_20(it - 11), buf_20_0__18_1 + region_20(it - 11), tid);
      /* (CEp1_b1_d1_desc, k=0) o=0 f=1 threads=512 */
      if (stage_on[1] && tid < 512)
        work_CEp1_b1_d1_desc(buf_0_1__3_0 + region_3(it - 1), buf_3_0__1_1 + region_3(it - 1), tid);
      break; }
    case 5: {
      /* (split_stage_p2_d2, k=0) o=0 f=3 threads=512 */
      if (stage_on[3] && tid < 512)
        work_split_stage_p2_d2(buf_1_0__6_0 + region_6(it - 3), buf_6_0__8_0 + region_6(it - 3), tid);
      /* (CEp1_b3_d1_desc, k=0) o=0 f=1 threads=512 */
      if (stage_on[1] && tid < 512)
        work_CEp1_b3_d1_desc(buf_0_3__5_0 + region_5(it - 1), buf_5_0__1_3 + region_5(it - 1), tid);
      /* (CEp1_b2_d1_asc, k=0) o=0 f=1 threads=512 */
      if (stage_on[1] && tid < 512)
        work_CEp1_b2_d1_asc(buf_0_2__4_0 + region_4(it - 1), buf_4_0__1_2 + region_4(it - 1), tid);
      break; }
    case 6: {
      /* (join_stage_p2_d2, k=0) o=0 f=5 threads=512 */
      if (stage_on[5] && tid < 512)
        work_join_stage_p2_d2(buf_8_0__7_0 + region_7(it - 5), buf_7_0__10_0 + region_7(it - 5), tid);
      /* (join_stage_p2_d1, k=0) o=2610 f=7 threads=512 */
      if (stage_on[7] && tid < 512)
        work_join_stage_p2_d1(buf_12_0__11_0 + region_11(it - 7), buf_11_0__16_0 + region_11(it - 7), tid);
      /* (split_stage_p2_d1, k=0) o=2610 f=5 threads=512 */
      if (stage_on[5] && tid < 512)
        work_split_stage_p2_d1(buf_7_0__10_0 + region_10(it - 5), buf_10_0__12_0 + region_10(it - 5), tid);
      break; }
    case 7: {
      /* (CEp2_b2_d1_desc, k=0) o=2610 f=6 threads=512 */
      if (stage_on[6] && tid < 512)
        work_CEp2_b2_d1_desc(buf_10_2__14_0 + region_14(it - 6), buf_14_0__11_2 + region_14(it - 6), tid);
      /* (CEp2_b1_d1_asc, k=0) o=2610 f=6 threads=512 */
      if (stage_on[6] && tid < 512)
        work_CEp2_b1_d1_asc(buf_10_1__13_0 + region_13(it - 6), buf_13_0__11_1 + region_13(it - 6), tid);
      /* (CEp2_b0_d1_asc, k=0) o=2610 f=6 threads=512 */
      if (stage_on[6] && tid < 512)
        work_CEp2_b0_d1_asc(buf_10_0__12_0 + region_12(it - 6), buf_12_0__11_0 + region_12(it - 6), tid);
      break; }
    case 8: {
      /* (join_stage_p3_d2, k=0) o=0 f=12 threads=512 */
      if (stage_on[12] && tid < 512)
        work_join_stage_p3_d2(buf_19_0__18_0 + region_18(it - 12), buf_18_0__21_0 + region_18(it - 12), tid);
      /* (split_stage_p3_d2, k=0) o=0 f=10 threads=512 */
      if (stage_on[10] && tid < 512)
        work_split_stage_p3_d2(buf_16_0__17_0 + region_17(it - 10), buf_17_0__19_0 + region_17(it - 10), tid);
      /* (CEp2_b3_d1_desc, k=0) o=2610 f=6 threads=512 */
      if (stage_on[6] && tid < 512)
        work_CEp2_b3_d1_desc(buf_10_3__15_0 + region_15(it - 6), buf_15_0__11_3 + region_15(it - 6), tid);
      break; }
    case 9: {
      /* (join_stage_p3_d1, k=0) o=0 f=15 threads=512 */
      if (stage_on[15] && tid < 512)
        work_join_stage_p3_d1(buf_23_0__22_0 + region_22(it - 15), stream_out + region_22(it - 15), tid);
      /* (split_stage_p3_d1, k=0) o=0 f=13 threads=512 */
      if (stage_on[13] && tid < 512)
        work_split_stage_p3_d1(buf_18_0__21_0 + region_21(it - 13), buf_21_0__23_0 + region_21(it - 13), tid);
      /* (CEp3_b0_d1_asc, k=0) o=2610 f=13 threads=512 */
      if (stage_on[13] && tid < 512)
        work_CEp3_b0_d1_asc(buf_21_0__23_0 + region_23(it - 13), buf_23_0__22_0 + region_23(it - 13), tid);
      break; }
    case 10: {
      /* (CEp3_b3_d1_asc, k=0) o=0 f=14 threads=512 */
      if (stage_on[14] && tid < 512)
        work_CEp3_b3_d1_asc(buf_21_3__26_0 + region_26(it - 14), buf_26_0__22_3 + region_26(it - 14), tid);
      /* (CEp3_b2_d1_asc, k=0) o=0 f=14 threads=512 */
      if (stage_on[14] && tid < 512)
        work_CEp3_b2_d1_asc(buf_21_2__25_0 + region_25(it - 14), buf_25_0__22_2 + region_25(it - 14), tid);
      /* (CEp3_b1_d1_asc, k=0) o=0 f=14 threads=512 */
      if (stage_on[14] && tid < 512)
        work_CEp3_b1_d1_asc(buf_21_1__24_0 + region_24(it - 14), buf_24_0__22_1 + region_24(it - 14), tid);
      break; }
    }
    /* II boundary */
  }
}

/* host launch (OpenCL):
 *   clEnqueueNDRangeKernel: global = 16 x 512, local = 512
 *   clCreateBuffer buf_0_0__2_0: 69632 bytes
 *   clCreateBuffer buf_2_0__1_0: 69632 bytes
 *   clCreateBuffer buf_0_1__3_0: 69632 bytes
 *   clCreateBuffer buf_3_0__1_1: 69632 bytes
 *   clCreateBuffer buf_0_2__4_0: 69632 bytes
 *   clCreateBuffer buf_4_0__1_2: 69632 bytes
 *   clCreateBuffer buf_0_3__5_0: 69632 bytes
 *   clCreateBuffer buf_5_0__1_3: 69632 bytes
 *   clCreateBuffer buf_6_0__8_0: 139264 bytes
 *   clCreateBuffer buf_8_0__7_0: 139264 bytes
 *   clCreateBuffer buf_6_1__9_0: 139264 bytes
 *   clCreateBuffer buf_9_0__7_1: 139264 bytes
 *   clCreateBuffer buf_10_0__12_0: 69632 bytes
 *   clCreateBuffer buf_12_0__11_0: 69632 bytes
 *   clCreateBuffer buf_10_1__13_0: 69632 bytes
 *   clCreateBuffer buf_13_0__11_1: 69632 bytes
 *   clCreateBuffer buf_10_2__14_0: 69632 bytes
 *   clCreateBuffer buf_14_0__11_2: 69632 bytes
 *   clCreateBuffer buf_10_3__15_0: 69632 bytes
 *   clCreateBuffer buf_15_0__11_3: 69632 bytes
 *   clCreateBuffer buf_17_0__19_0: 139264 bytes
 *   clCreateBuffer buf_19_0__18_0: 139264 bytes
 *   clCreateBuffer buf_17_1__20_0: 139264 bytes
 *   clCreateBuffer buf_20_0__18_1: 139264 bytes
 *   clCreateBuffer buf_21_0__23_0: 69632 bytes
 *   clCreateBuffer buf_23_0__22_0: 69632 bytes
 *   clCreateBuffer buf_21_1__24_0: 69632 bytes
 *   clCreateBuffer buf_24_0__22_1: 69632 bytes
 *   clCreateBuffer buf_21_2__25_0: 69632 bytes
 *   clCreateBuffer buf_25_0__22_2: 69632 bytes
 *   clCreateBuffer buf_21_3__26_0: 69632 bytes
 *   clCreateBuffer buf_26_0__22_3: 69632 bytes
 *   clCreateBuffer buf_1_0__6_0: 278528 bytes
 *   clCreateBuffer buf_7_0__10_0: 278528 bytes
 *   clCreateBuffer buf_11_0__16_0: 278528 bytes
 *   clCreateBuffer buf_16_0__17_0: 278528 bytes
 *   clCreateBuffer buf_18_0__21_0: 278528 bytes
 *   stream_in/stream_out: 1 << 20 bytes, input shuffled per eq. (9); iterations = 1024
 */
