library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

-- One compare-exchange element: lo gets the smaller, hi the larger.
entity cmpex is
  port (
    a  : in  std_logic_vector(7 downto 0);
    b  : in  std_logic_vector(7 downto 0);
    lo : out std_logic_vector(7 downto 0);
    hi : out std_logic_vector(7 downto 0)
  );
end entity;
architecture rtl of cmpex is
begin
  lo <= a when unsigned(a) < unsigned(b) else b;
  hi <= b when unsigned(a) < unsigned(b) else a;
end architecture;

-- 8-lane bitonic sorting network over two 32-bit buses (4 lanes each).
entity bitonic8 is
  port (
    in_lo  : in  std_logic_vector(31 downto 0);
    in_hi  : in  std_logic_vector(31 downto 0);
    out_lo : out std_logic_vector(31 downto 0);
    out_hi : out std_logic_vector(31 downto 0)
  );
end entity;
architecture rtl of bitonic8 is
  signal x0, x1, x2, x3, x4, x5, x6, x7 : std_logic_vector(7 downto 0);
  signal a0, a1, a2, a3, a4, a5, a6, a7 : std_logic_vector(7 downto 0);
  signal b0, b1, b2, b3, b4, b5, b6, b7 : std_logic_vector(7 downto 0);
  signal c0, c1, c2, c3, c4, c5, c6, c7 : std_logic_vector(7 downto 0);
  signal d0, d1, d2, d3, d4, d5, d6, d7 : std_logic_vector(7 downto 0);
  signal e0, e1, e2, e3, e4, e5, e6, e7 : std_logic_vector(7 downto 0);
  signal f0, f1, f2, f3, f4, f5, f6, f7 : std_logic_vector(7 downto 0);
begin
  x0 <= in_lo(7 downto 0);
  x1 <= in_lo(15 downto 8);
  x2 <= in_lo(23 downto 16);
  x3 <= in_lo(31 downto 24);
  x4 <= in_hi(7 downto 0);
  x5 <= in_hi(15 downto 8);
  x6 <= in_hi(23 downto 16);
  x7 <= in_hi(31 downto 24);

  -- Stage 1: sort pairs (alternating direction).
  s1a: entity work.cmpex port map (a => x0, b => x1, lo => a0, hi => a1);
  s1b: entity work.cmpex port map (a => x2, b => x3, lo => a3, hi => a2);
  s1c: entity work.cmpex port map (a => x4, b => x5, lo => a4, hi => a5);
  s1d: entity work.cmpex port map (a => x6, b => x7, lo => a7, hi => a6);

  -- Stage 2: bitonic merge of 4-element runs.
  s2a: entity work.cmpex port map (a => a0, b => a2, lo => b0, hi => b2);
  s2b: entity work.cmpex port map (a => a1, b => a3, lo => b1, hi => b3);
  s2c: entity work.cmpex port map (a => a4, b => a6, lo => b6, hi => b4);
  s2d: entity work.cmpex port map (a => a5, b => a7, lo => b7, hi => b5);

  s3a: entity work.cmpex port map (a => b0, b => b1, lo => c0, hi => c1);
  s3b: entity work.cmpex port map (a => b2, b => b3, lo => c2, hi => c3);
  s3c: entity work.cmpex port map (a => b4, b => b5, lo => c5, hi => c4);
  s3d: entity work.cmpex port map (a => b6, b => b7, lo => c7, hi => c6);

  -- Stage 3: final 8-element bitonic merge.
  s4a: entity work.cmpex port map (a => c0, b => c4, lo => d0, hi => d4);
  s4b: entity work.cmpex port map (a => c1, b => c5, lo => d1, hi => d5);
  s4c: entity work.cmpex port map (a => c2, b => c6, lo => d2, hi => d6);
  s4d: entity work.cmpex port map (a => c3, b => c7, lo => d3, hi => d7);

  s5a: entity work.cmpex port map (a => d0, b => d2, lo => e0, hi => e2);
  s5b: entity work.cmpex port map (a => d1, b => d3, lo => e1, hi => e3);
  s5c: entity work.cmpex port map (a => d4, b => d6, lo => e4, hi => e6);
  s5d: entity work.cmpex port map (a => d5, b => d7, lo => e5, hi => e7);

  s6a: entity work.cmpex port map (a => e0, b => e1, lo => f0, hi => f1);
  s6b: entity work.cmpex port map (a => e2, b => e3, lo => f2, hi => f3);
  s6c: entity work.cmpex port map (a => e4, b => e5, lo => f4, hi => f5);
  s6d: entity work.cmpex port map (a => e6, b => e7, lo => f6, hi => f7);

  out_lo <= f3 & f2 & f1 & f0;
  out_hi <= f7 & f6 & f5 & f4;
end architecture;
